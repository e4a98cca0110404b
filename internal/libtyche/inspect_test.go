package libtyche

import (
	"sort"

	"github.com/tyche-sim/tyche/internal/phys"
)

// What the tests read the library's objects through beside its API.

// Extents returns the free list (sorted, for diagnostics).
func (a *Allocator) Extents() []phys.Region {
	out := make([]phys.Region, len(a.free))
	copy(out, a.free)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Sealed reports whether the domain was sealed.
func (d *Domain) Sealed() bool { return d.sealed }

// Base returns the ring's base address (guest programs need it to
// address the same ring from assembly).
func (r *Ring) Base() phys.Addr { return r.base }
