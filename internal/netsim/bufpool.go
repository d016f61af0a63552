package netsim

import "math/bits"

// Packet buffers are pooled per Network in power-of-two size classes,
// from 64 bytes up to 64 KiB, which holds any IPv4 packet. Every packet
// the simulation injects is built into a buffer from the pool, and the
// buffer goes back where its packet dies: after the delivery's Handle
// returns, or when a router drops the packet (loss, a malformed header,
// TTL expiry once the ICMP quote has been copied), or when it has no
// route. A buffer is only ever filed under the class it was handed out
// from, so the pool never holds more buffers than were in flight at once.
const (
	minBufShift = 6  // smallest class: 64 bytes
	maxBufShift = 16 // largest class: 64 KiB
)

// poisonByte is what builds with the netsimpoison tag fill released
// buffers with (see poisonReleased).
const poisonByte = 0xA5

// bufPool is one free list per size class.
type bufPool [maxBufShift - minBufShift + 1][][]byte

// bufClass is the index of the smallest class that holds size bytes.
func bufClass(size int) int {
	if size <= 1<<minBufShift {
		return 0
	}
	return bits.Len(uint(size-1)) - minBufShift
}

// get returns a buffer of length size. Its bytes are stale: the caller
// overwrites all of them. A size beyond the largest class gets a buffer
// of its own, which put then refuses.
func (p *bufPool) get(size int) []byte {
	c := bufClass(size)
	if c >= len(p) {
		return make([]byte, size)
	}
	if free := p[c]; len(free) > 0 {
		b := free[len(free)-1]
		p[c] = free[:len(free)-1]
		return b[:size]
	}
	return make([]byte, size, 1<<(c+minBufShift))
}

// put files a buffer get handed out under its class. A buffer whose
// capacity is not exactly a class size did not come from get and is left
// to the garbage collector.
func (p *bufPool) put(b []byte) {
	c := bufClass(cap(b))
	if c >= len(p) || cap(b) != 1<<(c+minBufShift) {
		return
	}
	b = b[:cap(b)]
	if poisonReleased {
		for i := range b {
			b[i] = poisonByte
		}
	}
	p[c] = append(p[c], b)
}
