// Package phys defines the physical name spaces the isolation monitor
// operates on: physical memory addresses and regions, CPU core
// identifiers, and PCI device identifiers.
//
// The paper's monitor deliberately manages physical names rather than
// virtual ones: "policies operate on physical name spaces (e.g., memory,
// CPU cores), which (1) permit reasoning about sharing and exclusive
// ownership without having to consider aliasing" (§3.2). Keeping these
// types in a leaf package lets the platform-independent capability model
// and the simulated hardware share one vocabulary without depending on
// each other.
package phys

import (
	"cmp"
	"fmt"
	"slices"
)

// PageSize is the granularity of memory access control, matching the 4KiB
// page granularity of second-level page tables (EPT) on x86_64 and the
// minimum practical PMP granularity on RISC-V.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Addr is a physical memory address.
type Addr uint64

// PageAlign rounds a down to the containing page boundary.
func (a Addr) PageAlign() Addr { return a &^ (PageSize - 1) }

// PageAligned reports whether a lies on a page boundary.
func (a Addr) PageAligned() bool { return a&(PageSize-1) == 0 }

// Page returns the page frame number containing a.
func (a Addr) Page() uint64 { return uint64(a) >> PageShift }

func (a Addr) String() string { return fmt.Sprintf("%#x", uint64(a)) }

// CoreID identifies a CPU core. Cores are physical resources: a trust
// domain may only execute on cores present in its resource configuration.
type CoreID int

func (c CoreID) String() string { return fmt.Sprintf("core%d", int(c)) }

// DeviceID identifies a PCI device (including SR-IOV virtual functions).
type DeviceID int

func (d DeviceID) String() string { return fmt.Sprintf("dev%d", int(d)) }

// Region is a half-open physical memory interval [Start, End).
//
// The zero Region is empty. Regions used for access control must be
// page-aligned; Validate enforces this.
type Region struct {
	Start Addr
	End   Addr
}

// MakeRegion builds the region [start, start+size).
func MakeRegion(start Addr, size uint64) Region {
	return Region{Start: start, End: start + Addr(size)}
}

// Size returns the number of bytes covered by r.
func (r Region) Size() uint64 {
	if r.End <= r.Start {
		return 0
	}
	return uint64(r.End - r.Start)
}

// Pages returns the number of pages covered by r, assuming alignment.
func (r Region) Pages() uint64 { return r.Size() / PageSize }

// Empty reports whether r covers no bytes.
func (r Region) Empty() bool { return r.End <= r.Start }

// Contains reports whether a lies inside r.
func (r Region) Contains(a Addr) bool { return a >= r.Start && a < r.End }

// ContainsRegion reports whether o is fully inside r. Empty o is contained
// in any region.
func (r Region) ContainsRegion(o Region) bool {
	if o.Empty() {
		return true
	}
	return o.Start >= r.Start && o.End <= r.End
}

// Overlaps reports whether r and o share at least one byte.
func (r Region) Overlaps(o Region) bool {
	return !r.Empty() && !o.Empty() && r.Start < o.End && o.Start < r.End
}

// Intersect returns the overlapping part of r and o (possibly empty).
func (r Region) Intersect(o Region) Region {
	s, e := r.Start, r.End
	if o.Start > s {
		s = o.Start
	}
	if o.End < e {
		e = o.End
	}
	if e < s {
		e = s
	}
	return Region{Start: s, End: e}
}

// Validate checks that r is non-empty and page-aligned at both ends.
func (r Region) Validate() error {
	if r.Empty() {
		return fmt.Errorf("phys: empty region %v", r)
	}
	if !r.Start.PageAligned() || !r.End.PageAligned() {
		return fmt.Errorf("phys: region %v not page-aligned", r)
	}
	return nil
}

func (r Region) String() string {
	return fmt.Sprintf("[%#x,%#x)", uint64(r.Start), uint64(r.End))
}

// Subtract returns the parts of r not covered by o, in address order.
// The result has zero, one, or two regions.
func (r Region) Subtract(o Region) []Region {
	if !r.Overlaps(o) {
		if r.Empty() {
			return nil
		}
		return []Region{r}
	}
	var out []Region
	if o.Start > r.Start {
		out = append(out, Region{Start: r.Start, End: o.Start})
	}
	if o.End < r.End {
		out = append(out, Region{Start: o.End, End: r.End})
	}
	return out
}

// NormalizeRegions sorts regions by start address and merges adjacent or
// overlapping ones, dropping empties. It does not mutate its argument:
// the copy it sorts is the buffer it merges into and returns.
func NormalizeRegions(regs []Region) []Region {
	out := slices.DeleteFunc(slices.Clone(regs), Region.Empty)
	slices.SortFunc(out, func(a, b Region) int { return cmp.Compare(a.Start, b.Start) })
	n := 0 // out[:n] is merged; the merge never writes past what it has read
	for _, r := range out {
		if n > 0 && r.Start <= out[n-1].End {
			out[n-1].End = max(out[n-1].End, r.End)
			continue
		}
		out[n] = r
		n++
	}
	if n == 0 {
		return nil
	}
	return out[:n]
}

// CoverageSize returns the total bytes covered by the normalized union of
// regs.
func CoverageSize(regs []Region) uint64 {
	var total uint64
	for _, r := range NormalizeRegions(regs) {
		total += r.Size()
	}
	return total
}
