package identifier

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestInternerTurnover interns three generations' worth of names twice
// over and checks that every returned string matches its input, that the
// table never holds more than two generations, and that a name re-sighted
// while it is still held comes back as the canonical instance.
func TestInternerTurnover(t *testing.T) {
	var in Interner
	names := make([]string, 3*internGeneration)
	for i := range names {
		names[i] = fmt.Sprintf("n%06d.www.experiment.domain", i)
	}
	for pass := 0; pass < 2; pass++ {
		for i, name := range names {
			var got string
			if i%2 == 0 {
				got = in.Intern(name)
			} else {
				got = in.InternBytes([]byte(name))
			}
			if got != name {
				t.Fatalf("pass %d: Intern(%q) = %q", pass, name, got)
			}
			if in.Len() > 2*internGeneration {
				t.Fatalf("pass %d after %d names: Len = %d, above two generations (%d)", pass, i+1, in.Len(), 2*internGeneration)
			}
			// The previous name is still in one of the generations.
			if i > 0 {
				prev := []byte(names[i-1])
				if c := in.InternBytes(prev); c != names[i-1] {
					t.Fatalf("re-sighting %q returned %q", prev, c)
				}
			}
		}
	}
}

// TestInternerPromotion checks that a hit in the old generation moves the
// string into the current one, so it outlives the next turnover, and that
// the promoted string is the instance first interned.
func TestInternerPromotion(t *testing.T) {
	var in Interner
	first := in.InternBytes([]byte("kept.www.experiment.domain"))
	for i := 0; i < internGeneration; i++ {
		in.Intern(fmt.Sprintf("fill%d", i))
	}
	if _, ok := in.old[first]; !ok {
		t.Fatal("first string did not move to the old generation at turnover")
	}
	if got := in.Intern("kept.www.experiment.domain"); !sameString(got, first) {
		t.Fatalf("old-generation hit returned a different instance")
	}
	if _, ok := in.cur[first]; !ok {
		t.Fatal("old-generation hit did not promote the string")
	}
	// The current generation holds two strings; a generation's worth more
	// turns it over exactly once, dropping the generation of fill strings.
	for i := 0; i < internGeneration; i++ {
		in.Intern(fmt.Sprintf("more%d", i))
	}
	if _, ok := in.old["fill0"]; ok {
		t.Fatal("the dropped generation is still held")
	}
	if got := in.InternBytes([]byte("kept.www.experiment.domain")); !sameString(got, first) {
		t.Fatal("promoted string did not survive the next turnover")
	}
}

// sameString reports whether a and b are one instance: the same bytes at
// the same address.
func sameString(a, b string) bool {
	return a == b && unsafe.StringData(a) == unsafe.StringData(b)
}

// TestInternerHitAllocs checks that hits allocate nothing in either
// generation, including the promotion an old-generation hit performs,
// once both generation maps have grown.
func TestInternerHitAllocs(t *testing.T) {
	var in Interner
	for i := 0; i < 3*internGeneration; i++ {
		in.Intern(fmt.Sprintf("warm%d", i))
	}
	cur := []byte("cur.www.experiment.domain")
	in.InternBytes(cur)
	if n := testing.AllocsPerRun(100, func() { in.InternBytes(cur) }); n != 0 {
		t.Errorf("current-generation hit: %v allocs, want 0", n)
	}
	old := []byte("old.www.experiment.domain")
	in.InternBytes(old)
	// Move the string to the old generation only, leaving the current one
	// empty but grown, as a turnover does.
	in.old, in.cur = in.cur, in.old
	clear(in.cur)
	if n := testing.AllocsPerRun(100, func() {
		delete(in.cur, string(old)) // undo the last promotion
		if _, ok := in.old[string(old)]; !ok {
			t.Fatal("string left the old generation")
		}
		in.InternBytes(old)
	}); n != 0 {
		t.Errorf("old-generation hit with promotion: %v allocs, want 0", n)
	}
	if _, ok := in.cur[string(old)]; !ok {
		t.Error("old-generation hit did not promote the string")
	}
}

// BenchmarkInternHit measures the hit path of the sniff fast path: a
// []byte name already in the table. It must not allocate.
func BenchmarkInternHit(b *testing.B) {
	var in Interner
	name := []byte("g6d8jjkut5obc4aaaaaaaaaaaaaa-9982.www.experiment.domain")
	in.InternBytes(name)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.InternBytes(name)
	}
}
