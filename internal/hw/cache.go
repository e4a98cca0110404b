package hw

import (
	"fmt"
	"sync/atomic"

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
//
// The cache belongs to one core, but the monitor's flush-on-transition
// cleanups flush other cores' caches (the simulated IPI), so each set
// is one atomic word: an access is a load, a compare and, on a miss, a
// store; a flush swaps each occupied set to empty. An access that races
// a flush lands before or after it, set by set, as on hardware.
type Cache struct {
	lines []atomic.Uint64 // resident line tag per set, 0 = empty (tag is addr/64+1)
	mask  uint64          // len(lines)-1: the set of a line is its low bits

	hits, misses, flushedLines atomic.Uint64
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
	return &Cache{lines: make([]atomic.Uint64, n), mask: uint64(n - 1)}
}

func (c *Cache) slot(a phys.Addr) (set *atomic.Uint64, tag uint64) {
	line := uint64(a) / CacheLineSize
	return &c.lines[line&c.mask], line + 1
}

// touch makes a's line resident, returning true if it already was. The
// owning core counts the outcome itself (see Core.publish).
func (c *Cache) touch(a phys.Addr) bool {
	set, tag := c.slot(a)
	if set.Load() == tag {
		return true
	}
	set.Store(tag)
	return false
}

// Touch records an access to a, returning true on hit.
func (c *Cache) Touch(a phys.Addr) bool {
	hit := c.touch(a)
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return hit
}

// Probe reports whether a is resident without refilling on miss: the
// attacker's measurement primitive.
func (c *Cache) Probe(a phys.Addr) bool {
	set, tag := c.slot(a)
	return set.Load() == tag
}

// Resident returns the number of occupied line slots.
func (c *Cache) Resident() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].Load() != 0 {
			n++
		}
	}
	return n
}

// Flush invalidates the whole cache and returns the number of lines it
// cleared (callers charge CacheFlushLine per line).
func (c *Cache) Flush() uint64 {
	var n uint64
	for i := range c.lines {
		if c.lines[i].Load() != 0 && c.lines[i].Swap(0) != 0 {
			n++
		}
	}
	c.flushedLines.Add(n)
	return n
}

// Stats returns hit/miss/flushed-line counters. The owning core adds
// its accesses when its Run or Step returns, so while it is inside a
// Run hits and misses lag.
func (c *Cache) Stats() (hits, misses, flushed uint64) {
	return c.hits.Load(), c.misses.Load(), c.flushedLines.Load()
}
