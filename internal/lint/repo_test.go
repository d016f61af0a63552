package lint

import "testing"

// TestAllAnalyzersRegistered pins the analyzer roster, so the repo-wide
// clean run below provably covers every analyzer — including the five
// whole-program ones — and a new analyzer cannot be shipped without
// joining the gate.
func TestAllAnalyzersRegistered(t *testing.T) {
	want := []string{
		"simclock", "detrand", "droppederr", "sliceretain", "rawprint",
		"hotalloc", "crossworld", "eventloop", "atomicpub", "metriclabel",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("All()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing Doc or Run", a.Name)
		}
	}
}

// TestRepoIsLintClean runs every analyzer over the whole module, so a
// plain `go test ./...` catches determinism regressions without anyone
// remembering to invoke cmd/shadowlint. The tree must stay at zero
// findings; deliberate exceptions carry //shadowlint:ignore directives
// with written reasons.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the full module; skipped in -short mode")
	}
	l, err := Open("../..")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(l, paths, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Log("fix the findings or add a //shadowlint:ignore <analyzer> <reason> with a written justification")
	}
}
