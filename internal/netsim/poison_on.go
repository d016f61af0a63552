//go:build netsimpoison

package netsim

// poisonReleased, set by the netsimpoison build tag, fills every packet
// buffer with poisonByte as it returns to the pool. A handler, tap or
// callback that reads payload bytes after its call returned then sees
// 0xA5 instead of the packet, so a run whose output differs from the
// untagged build has broken the per-call payload lifetime.
const poisonReleased = true
