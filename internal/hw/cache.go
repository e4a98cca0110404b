package hw

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/phys"
)

// CacheLineSize is the modelled cache line size in bytes.
const CacheLineSize = 64

// DefaultCacheLines is the modelled per-core data cache capacity in
// lines (512 lines x 64 B = 32 KiB, an L1d).
const DefaultCacheLines = 512

// Cache models per-core data-cache micro-architectural state at the
// granularity the side-channel experiments need: which line-sized tags
// are resident. A prime+probe attacker distinguishes hits from misses
// after a victim ran; the monitor's flush-on-transition revocation
// policy (§4.1: "revocation policies that flush micro-architectural
// state (caches) during a transition") erases that signal.
//
// The model is direct-mapped by line index with tags, which is enough to
// produce real conflict-eviction behaviour for prime+probe.
type Cache struct {
	lines []uint64 // resident line tag per set, 0 = empty (tag is addr/64+1)
	mask  uint64   // len(lines)-1: the set of a line is its low bits

	hits, misses, flushedLines uint64
}

// NewCache returns a cache with n line slots; n <= 0 selects
// DefaultCacheLines. n must be a power of two, so that the set index is
// a mask rather than a divide on every access; NewCache panics
// otherwise.
func NewCache(n int) *Cache {
	if n <= 0 {
		n = DefaultCacheLines
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("hw: cache of %d lines: the line count must be a power of two", n))
	}
	return &Cache{lines: make([]uint64, n), mask: uint64(n - 1)}
}

func (c *Cache) slot(a phys.Addr) (set *uint64, tag uint64) {
	line := uint64(a) / CacheLineSize
	return &c.lines[line&c.mask], line + 1
}

// touch makes a's line resident, returning true if it already was. The
// owning core counts the outcome itself, into hits or misses.
func (c *Cache) touch(a phys.Addr) bool {
	set, tag := c.slot(a)
	if *set == tag {
		return true
	}
	*set = tag
	return false
}

// Probe reports whether a is resident without refilling on miss: the
// attacker's measurement primitive.
func (c *Cache) Probe(a phys.Addr) bool {
	set, tag := c.slot(a)
	return *set == tag
}

// Flush invalidates the whole cache and returns the number of lines it
// cleared (callers charge CacheFlushLine per line).
func (c *Cache) Flush() uint64 {
	var n uint64
	for i := range c.lines {
		if c.lines[i] != 0 {
			c.lines[i] = 0
			n++
		}
	}
	c.flushedLines += n
	return n
}
