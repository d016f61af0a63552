package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// want is one expected diagnostic parsed from a fixture marker of the
// form:
//
//	// want <analyzer> "<message substring>"
type want struct {
	file     string
	line     int
	analyzer string
	substr   string
}

var wantRE = regexp.MustCompile(`// want (\w+) "([^"]*)"`)

// parseWants scans every fixture file in dir for want markers.
func parseWants(t *testing.T, dir string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				wants = append(wants, want{file: path, line: i + 1, analyzer: m[1], substr: m[2]})
			}
		}
	}
	return wants
}

func openFixture(t *testing.T) *Loader {
	t.Helper()
	l, err := Open("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestAnalyzersOnFixtures drives every analyzer over the fixture
// packages and requires an exact match between the emitted diagnostics
// and the // want markers: each finding needs a marker on its exact
// file and line, and each marker must be hit. Cases that exercise
// cross-package reachability list every involved package.
func TestAnalyzersOnFixtures(t *testing.T) {
	cases := []struct {
		name string
		pkgs []string // module-relative fixture packages, analyzed together
	}{
		{name: "internal/clock", pkgs: []string{"internal/clock"}},
		{name: "internal/rng", pkgs: []string{"internal/rng"}},
		{name: "internal/errs", pkgs: []string{"internal/errs"}},
		{name: "internal/fakewire", pkgs: []string{"internal/fakewire"}},
		{name: "internal/printy", pkgs: []string{"internal/printy"}},
		{name: "internal/hotsim", pkgs: []string{"internal/hotsim"}},
		{name: "internal/hotx", pkgs: []string{"internal/hotx", "internal/hotxdep"}},
		{name: "internal/crossworld", pkgs: []string{"internal/crossworld"}},
		{name: "internal/loopfield", pkgs: []string{"internal/loopfield"}},
		{name: "internal/atomicpub", pkgs: []string{"internal/atomicpub"}},
		{name: "internal/metriclabel", pkgs: []string{"internal/metriclabel"}},
		{name: "internal/staleignore", pkgs: []string{"internal/staleignore"}},
		{name: "clockok", pkgs: []string{"clockok"}}, // outside internal/: zero findings expected
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A fresh loader per case keeps the whole-program graph scoped
			// to the case's packages (plus their deps), so reachability
			// roots in one fixture cannot leak into another.
			l := openFixture(t)
			paths := make([]string, len(tc.pkgs))
			for i, pkg := range tc.pkgs {
				paths[i] = "fixture/" + pkg
			}
			diags, err := Run(l, paths, All())
			if err != nil {
				t.Fatal(err)
			}
			var wants []want
			for _, pkg := range tc.pkgs {
				wants = append(wants, parseWants(t, filepath.Join("testdata/mod", pkg))...)
			}
			matched := make([]bool, len(wants))
		diag:
			for _, d := range diags {
				for i, w := range wants {
					if matched[i] || d.Analyzer != w.analyzer || d.Pos.Line != w.line {
						continue
					}
					if !strings.HasSuffix(d.Pos.Filename, w.file) {
						continue
					}
					if !strings.Contains(d.Message, w.substr) {
						continue
					}
					matched[i] = true
					continue diag
				}
				t.Errorf("unexpected diagnostic: %s", d)
			}
			for i, w := range wants {
				if !matched[i] {
					t.Errorf("missing diagnostic: %s:%d: %s: ...%s...", w.file, w.line, w.analyzer, w.substr)
				}
			}
		})
	}
}

// TestExactPositions pins line AND column for one finding per analyzer,
// so position reporting cannot silently drift.
func TestExactPositions(t *testing.T) {
	l := openFixture(t)
	diags, err := Run(l, []string{
		"fixture/internal/clock",
		"fixture/internal/rng",
		"fixture/internal/errs",
		"fixture/internal/fakewire",
		"fixture/internal/printy",
		"fixture/internal/hotsim",
	}, All())
	if err != nil {
		t.Fatal(err)
	}
	base, err := filepath.Abs("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool)
	for _, d := range diags {
		rel, err := filepath.Rel(base, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("%s:%d:%d:%s", filepath.ToSlash(rel), d.Pos.Line, d.Pos.Column, d.Analyzer)] = true
	}
	for _, exact := range []string{
		"internal/clock/clock.go:8:15:simclock",           // var NowFunc = time.Now
		"internal/clock/clock.go:12:7:simclock",           // t := time.Now()
		"internal/rng/rng.go:9:9:detrand",                 // return rand.Intn(6)
		"internal/errs/errs.go:19:2:droppederr",           // fail()
		"internal/errs/errs.go:22:5:droppederr",           // v, _ := pair() (blank ident)
		"internal/fakewire/fakewire.go:24:11:sliceretain", // Header: data[:4]
		"internal/printy/printy.go:14:2:rawprint",         // fmt.Println("progress!")
		"internal/printy/printy.go:18:2:rawprint",         // fmt.Fprintf(os.Stderr, ...)
		"internal/hotsim/hotsim.go:24:7:hotalloc",         // Sprintf reachable from forward
		"internal/hotsim/hotsim.go:39:9:hotalloc",         // Sprintf in the direct root
	} {
		if !got[exact] {
			t.Errorf("expected a diagnostic at exactly %s; got:\n%s", exact, keys(got))
		}
	}
}

func keys(m map[string]bool) string {
	var sb strings.Builder
	for k := range m {
		sb.WriteString("  " + k + "\n")
	}
	return sb.String()
}

// TestMalformedSuppressions checks that broken directives are reported
// by the "shadowlint" pseudo-analyzer and are NOT honored: the
// wall-clock reads they fail to cover still fire.
func TestMalformedSuppressions(t *testing.T) {
	l := openFixture(t)
	diags, err := Run(l, []string{"fixture/internal/badsup"}, All())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d:%d:%s", d.Pos.Line, d.Pos.Column, d.Analyzer))
	}
	wantExact := []string{
		"11:2:shadowlint", // missing reason
		"12:9:simclock",   // ...and the read it failed to cover
		"17:2:shadowlint", // unknown analyzer
		"18:9:simclock",
		"23:2:shadowlint", // naked directive
		"24:9:simclock",
	}
	if strings.Join(got, " ") != strings.Join(wantExact, " ") {
		t.Errorf("badsup diagnostics:\n got %v\nwant %v", got, wantExact)
	}
	for _, d := range diags {
		if d.Analyzer != "shadowlint" {
			continue
		}
		switch d.Pos.Line {
		case 11:
			if !strings.Contains(d.Message, "missing a reason") {
				t.Errorf("line 11: want missing-reason message, got %q", d.Message)
			}
		case 17:
			if !strings.Contains(d.Message, "unknown analyzer") {
				t.Errorf("line 17: want unknown-analyzer message, got %q", d.Message)
			}
		case 23:
			if !strings.Contains(d.Message, "malformed suppression") {
				t.Errorf("line 23: want malformed message, got %q", d.Message)
			}
		}
	}
}

// TestDiagnosticFormat locks the canonical rendering.
func TestDiagnosticFormat(t *testing.T) {
	d := Diagnostic{Analyzer: "simclock", Message: "boom"}
	d.Pos.Filename = "a/b.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "a/b.go:3:7: simclock: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestExpand checks pattern resolution against the fixture module.
func TestExpand(t *testing.T) {
	l := openFixture(t)
	paths, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(paths, " ")
	for _, p := range []string{
		"fixture/clockok",
		"fixture/internal/badsup",
		"fixture/internal/clock",
		"fixture/internal/errs",
		"fixture/internal/fakewire",
		"fixture/internal/rng",
		"fixture/internal/crossworld",
		"fixture/internal/loopfield",
		"fixture/internal/atomicpub",
		"fixture/internal/metriclabel",
	} {
		if !strings.Contains(joined, p) {
			t.Errorf("Expand(./...) missing %s (got %v)", p, paths)
		}
	}
	single, err := l.Expand([]string{"./internal/clock"})
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 || single[0] != "fixture/internal/clock" {
		t.Errorf("Expand(./internal/clock) = %v", single)
	}
}
