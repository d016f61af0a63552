package bench

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// golden is the correctness oracle: SHA-256 digests of a workload's
// outputs (batch JSON, merged telemetry) for one seed, one line per
// output in sha256sum format. Outputs the file does not list are checked
// only by the per-trial invariants.
type golden struct {
	path string
	want map[string]string
	got  map[string]string
}

func goldenPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.sha256", workload, seed))
}

func loadGolden(dir, workload string, seed int64) (*golden, error) {
	g := &golden{path: goldenPath(dir, workload, seed), want: map[string]string{}, got: map[string]string{}}
	f, err := os.Open(g.path)
	if errors.Is(err, fs.ErrNotExist) {
		return g, nil
	}
	if err != nil {
		return nil, fmt.Errorf("bench: golden: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok || len(sum) != 64 {
			return nil, fmt.Errorf("bench: golden %s: malformed line %q", g.path, sc.Text())
		}
		g.want[name] = sum
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: golden %s: %w", g.path, err)
	}
	return g, nil
}

// record notes the digest of one named output.
func (g *golden) record(name string, data []byte) {
	sum := sha256.Sum256(data)
	g.got[name] = hex.EncodeToString(sum[:])
}

// mismatches lists the outputs whose digest differs from the file's.
func (g *golden) mismatches() []string {
	var bad []string
	for name, sum := range g.got {
		if want, ok := g.want[name]; ok && want != sum {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

// write records this run's digests in the golden file, keeping the
// entries for outputs this run did not produce (later rounds, or the
// batch JSON a traced run never renders).
func (g *golden) write() error {
	all := make(map[string]string, len(g.want)+len(g.got))
	for name, sum := range g.want {
		all[name] = sum
	}
	for name, sum := range g.got {
		all[name] = sum
	}
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s  %s\n", all[name], name)
	}
	if err := os.MkdirAll(filepath.Dir(g.path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(g.path, []byte(b.String()), 0o644)
}
