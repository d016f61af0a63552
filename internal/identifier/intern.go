package identifier

// internGeneration is the size of one Interner generation. A domain is
// re-sighted at an observation point within moments of its first
// sighting — resolver retries, the recursion to the honeypot — so a few
// thousand recent names catch the repeats, while a table that kept every
// domain of a campaign would grow with the decoy count.
const internGeneration = 4096

// Interner deduplicates experiment-domain strings. One decoy emission
// makes its domain reappear many times — resolver retries, recursion to
// the honeypot, and the exhibitors' own probe traffic all carry the same
// name past the same observation points — and every sniff re-allocates an
// identical string. An interner returns one canonical instance instead,
// and InternBytes makes the hit path allocation-free (the map lookup on a
// []byte key does not copy).
//
// The table is bounded: it keeps two generations of internGeneration
// strings. New strings enter the current generation; when it is full it
// becomes the old one and the previous old generation is dropped. A hit in
// the old generation promotes the string to the current one. A dropped
// string is simply allocated afresh on its next sighting, and callers
// compare interned strings only by content, so the bound changes no
// result.
//
// Not safe for concurrent use. Give each single-goroutine consumer (a DPI
// device, a world's event loop) its own.
type Interner struct {
	cur, old map[string]string
}

// Intern returns the canonical instance of s, storing s on first sight.
func (in *Interner) Intern(s string) string {
	if c, ok := in.cur[s]; ok {
		return c
	}
	if c, ok := in.old[s]; ok {
		in.add(c)
		return c
	}
	in.add(s)
	return s
}

// InternBytes returns the canonical string for b, copying b only on first
// sight.
func (in *Interner) InternBytes(b []byte) string {
	if c, ok := in.cur[string(b)]; ok {
		return c
	}
	if c, ok := in.old[string(b)]; ok {
		in.add(c)
		return c
	}
	s := string(b)
	in.add(s)
	return s
}

// add stores s in the current generation, turning the generations over
// first when it is full. The dropped generation's map is cleared and
// reused, so once both maps have grown to a generation's size, neither
// turnover nor promotion allocates.
func (in *Interner) add(s string) {
	if len(in.cur) >= internGeneration {
		clear(in.old)
		in.old, in.cur = in.cur, in.old
	}
	if in.cur == nil {
		in.cur = make(map[string]string, 64)
	}
	in.cur[s] = s
}

// Len reports how many strings the two generations hold; a string
// promoted from the old generation counts in both until that generation
// is dropped.
func (in *Interner) Len() int { return len(in.cur) + len(in.old) }
