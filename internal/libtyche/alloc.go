// Package libtyche implements higher-level isolation abstractions on
// top of the monitor's domain API, mirroring the paper's libtyche
// (§4.2): loading manifest-described images as domains, and building
// sandboxes, enclaves, kernel compartments, and confidential VMs —
// all as library code running *within* trust domains, not monitor
// features ("higher-level abstractions ... are implemented on top of
// the monitor's isolation API by libraries running within the trust
// domains").
package libtyche

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/phys"
)

// Allocator hands out page-aligned physical regions from a pool the
// owning domain controls. Resource *allocation* is deliberately not the
// monitor's job (§3.5) — management code like this allocator picks the
// regions; the monitor only validates the resulting share/grant.
type Allocator struct {
	pool phys.Region
	free []phys.Region
}

// NewAllocator returns an allocator over pool (page-aligned).
func NewAllocator(pool phys.Region) (*Allocator, error) {
	if err := pool.Validate(); err != nil {
		return nil, fmt.Errorf("libtyche: allocator pool: %w", err)
	}
	return &Allocator{pool: pool, free: []phys.Region{pool}}, nil
}

// Pool returns the full region the allocator manages.
func (a *Allocator) Pool() phys.Region { return a.pool }

// FreeBytes returns the unallocated byte count.
func (a *Allocator) FreeBytes() uint64 { return phys.CoverageSize(a.free) }

// Alloc returns a region of the given page count (first fit).
func (a *Allocator) Alloc(pages uint64) (phys.Region, error) {
	if pages == 0 {
		return phys.Region{}, fmt.Errorf("libtyche: zero-page allocation")
	}
	want := pages * phys.PageSize
	for i, f := range a.free {
		if f.Size() < want {
			continue
		}
		got := phys.MakeRegion(f.Start, want)
		rest := phys.Region{Start: got.End, End: f.End}
		if rest.Empty() {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i] = rest
		}
		return got, nil
	}
	return phys.Region{}, fmt.Errorf("libtyche: out of memory: need %d pages, free %d bytes fragmented over %d extents",
		pages, a.FreeBytes(), len(a.free))
}

// Peek returns the region the next Alloc of the given page count would
// return, without allocating. Loaders use it to assemble
// position-dependent code against its final physical address before
// committing the allocation.
func (a *Allocator) Peek(pages uint64) (phys.Region, error) {
	if pages == 0 {
		return phys.Region{}, fmt.Errorf("libtyche: zero-page allocation")
	}
	want := pages * phys.PageSize
	for _, f := range a.free {
		if f.Size() >= want {
			return phys.MakeRegion(f.Start, want), nil
		}
	}
	return phys.Region{}, fmt.Errorf("libtyche: out of memory: need %d pages", pages)
}

// Free returns a region to the pool, coalescing neighbours.
func (a *Allocator) Free(r phys.Region) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if !a.pool.ContainsRegion(r) {
		return fmt.Errorf("libtyche: freeing %v outside pool %v", r, a.pool)
	}
	for _, f := range a.free {
		if f.Overlaps(r) {
			return fmt.Errorf("libtyche: double free of %v (overlaps free %v)", r, f)
		}
	}
	a.free = append(a.free, r)
	a.free = phys.NormalizeRegions(a.free)
	return nil
}
