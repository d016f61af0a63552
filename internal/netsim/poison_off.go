//go:build !netsimpoison

package netsim

// poisonReleased is false in normal builds: a released packet buffer
// keeps its bytes until the pool hands it out again.
const poisonReleased = false
