package hw

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/tyche-sim/tyche/internal/phys"
)

// EPT models a second-level (nested) page table: the per-domain
// access-control structure a VT-x backend programs. It maps physical
// pages to permissions at page granularity. Because the monitor manages
// physical names, the translation is identity and the EPT is purely an
// access filter (§3.3: "memory virtualization provides a second level of
// page tables to enforce memory access control at page granularity").
//
// The contents are an extent table: disjoint runs of identically
// permissioned pages, sorted by address, adjacent equal runs merged, no
// empty or PermNone run. A table never changes once installed: a write
// splices the next table from the old one into a new slice (the old one
// is what it reads from), installs it, and bumps the generation once. A
// Replace diffs its scope's next runs against the installed table there
// and reports the changed extents, which are all a resync pays for and
// traces; one whose runs equal the installed ones installs nothing and
// reports nothing: same filter, generation still moves — a resync is a
// resync to everything keyed on the generation (TLB tags, contexts),
// whether or not it changed the filter.
type EPT struct {
	tab []EPTMapping
	gen uint64
}

// EPTMapping is one contiguous run of identically permissioned pages.
type EPTMapping struct {
	Region phys.Region
	Perm   Perm
}

func (m EPTMapping) String() string { return fmt.Sprintf("%v %v", m.Region, m.Perm) }

// NewEPT returns an empty EPT denying all access.
func NewEPT() *EPT { return &EPT{} }

// install makes runs the live table and bumps the generation.
func (e *EPT) install(runs []EPTMapping) {
	e.tab = runs
	e.gen++
}

// Check implements AccessFilter.
func (e *EPT) Check(a phys.Addr, want Perm) bool {
	return e.Lookup(a).Allows(want)
}

// Lookup implements AccessFilter: a binary search for the run holding a.
func (e *EPT) Lookup(a phys.Addr) Perm {
	runs := e.tab
	lo, hi := 0, len(runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if runs[mid].Region.End <= a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(runs) && runs[lo].Region.Start <= a {
		return runs[lo].Perm
	}
	return PermNone
}

// Generation implements AccessFilter.
func (e *EPT) Generation() uint64 { return e.gen }

// appendRun appends m to a table under construction, extending the last
// run instead when m continues it with the same permission.
func appendRun(runs []EPTMapping, m EPTMapping) []EPTMapping {
	if n := len(runs); n > 0 && runs[n-1].Region.End == m.Region.Start && runs[n-1].Perm == m.Perm {
		runs[n-1].Region.End = m.Region.End
		return runs
	}
	return append(runs, m)
}

// Map sets the permission for every page of region r, replacing any
// previous permission. r must be page-aligned.
func (e *EPT) Map(r phys.Region, p Perm) error {
	if err := r.Validate(); err != nil {
		return fmt.Errorf("hw: ept map: %w", err)
	}
	e.install(Splice(make([]EPTMapping, 0, len(e.tab)+2), e.tab, r, []EPTMapping{{Region: r, Perm: p}}))
	return nil
}

// Unmap removes all permissions for region r.
func (e *EPT) Unmap(r phys.Region) error { return e.Map(r, PermNone) }

// Replace installs, in one step, the table with every page of scope
// set to what runs gives it and every page outside scope as it was. A whole-table
// rebuild is the scope phys.AllMemory. scope must be page-aligned; runs
// must be page-aligned, non-empty, sorted by address, disjoint and
// inside scope; otherwise Replace returns an error and leaves the table
// and the generation unchanged. PermNone runs are dropped and adjacent
// equal-permission runs merged.
//
// Replace diffs the scope's new runs against the installed table there
// and returns what the rebuild writes: every maximal extent of pages
// whose permission differs, with its new permission (PermNone for pages
// no longer mapped), in address order. The extents reuse buf's storage,
// so a caller that keeps buf allocates nothing for them. The table is
// spliced into a new copy only when some extent changed; the generation
// is bumped either way.
func (e *EPT) Replace(scope phys.Region, runs, buf []EPTMapping) (changed []EPTMapping, err error) {
	if !scope.Start.PageAligned() || !scope.End.PageAligned() {
		return buf[:0], fmt.Errorf("hw: ept replace: scope %v not page-aligned", scope)
	}
	var stack [32]EPTMapping // larger scopes spill to the heap
	in := stack[:0]
	end := scope.Start
	for _, m := range runs {
		if err := m.Region.Validate(); err != nil {
			return buf[:0], fmt.Errorf("hw: ept replace: %w", err)
		}
		if !scope.ContainsRegion(m.Region) {
			return buf[:0], fmt.Errorf("hw: ept replace: run %v outside scope %v", m.Region, scope)
		}
		if m.Region.Start < end {
			return buf[:0], fmt.Errorf("hw: ept replace: run %v unsorted or overlapping (previous run ends at %v)", m.Region, end)
		}
		end = m.Region.End
		if m.Perm != PermNone {
			in = appendRun(in, m)
		}
	}
	changed = clipRuns(diffRuns(overlapping(e.tab, scope), in, buf[:0]), scope)
	if len(changed) == 0 {
		e.gen++
		return changed, nil
	}
	var tab [32]EPTMapping // larger tables spill to the heap
	e.install(slices.Clone(Splice(tab[:0], e.tab, scope, in)))
	return changed, nil
}

// Splice appends to dst the canonical table runs with scope's pages
// replaced: runs' extents before scope (the one straddling its start
// cut there), then in's non-PermNone runs, then runs' extents after
// scope (the one straddling its end cut there), adjacent equal runs
// merged. runs must be canonical; in must be sorted, disjoint and
// inside scope. It is the one splice over extent tables: Map and
// Replace install with it, and the pmp backend installs a scoped
// rebuild's layout with it.
func Splice(dst, runs []EPTMapping, scope phys.Region, in []EPTMapping) []EPTMapping {
	i := 0
	for ; i < len(runs) && runs[i].Region.Start < scope.Start; i++ {
		r := runs[i]
		r.Region.End = min(r.Region.End, scope.Start)
		dst = appendRun(dst, r)
	}
	for _, m := range in {
		if m.Perm != PermNone {
			dst = appendRun(dst, m)
		}
	}
	// The last run that started before scope may also reach past it.
	for i = max(i-1, 0); i < len(runs); i++ {
		if r := runs[i]; r.Region.End > scope.End {
			r.Region.Start = max(r.Region.Start, scope.End)
			dst = appendRun(dst, r)
		}
	}
	return dst
}

// overlapping returns the runs of a canonical table that share a page
// with scope, found by binary search.
func overlapping(runs []EPTMapping, scope phys.Region) []EPTMapping {
	lo, _ := slices.BinarySearchFunc(runs, scope.Start, func(m EPTMapping, a phys.Addr) int {
		return cmp.Compare(m.Region.End-1, a)
	})
	hi, _ := slices.BinarySearchFunc(runs[lo:], scope.End, func(m EPTMapping, a phys.Addr) int {
		return cmp.Compare(m.Region.Start, a)
	})
	return runs[lo : lo+hi]
}

// clipRuns cuts sorted disjoint runs to scope in place, dropping what
// lies outside it.
func clipRuns(runs []EPTMapping, scope phys.Region) []EPTMapping {
	out := runs[:0]
	for _, m := range runs {
		if m.Region = m.Region.Intersect(scope); !m.Region.Empty() {
			out = append(out, m)
		}
	}
	return out
}

// diffRuns appends to out the extents where two canonical tables
// disagree, each with b's permission, merged into maximal runs. It
// walks both tables once: between two consecutive run boundaries of
// either table, each has one permission. A run both tables hold alike,
// with nothing of either before it, is stepped over whole.
func diffRuns(a, b, out []EPTMapping) []EPTMapping {
	var at phys.Addr
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if i < len(a) && j < len(b) && a[i] == b[j] && at <= a[i].Region.Start {
			at = a[i].Region.End
			i++
			j++
			continue
		}
		if i < len(a) && a[i].Region.End <= at {
			i++
			continue
		}
		if j < len(b) && b[j].Region.End <= at {
			j++
			continue
		}
		pa, ea := stretch(a, i, at)
		pb, eb := stretch(b, j, at)
		until := min(ea, eb)
		if pa != pb {
			out = appendRun(out, EPTMapping{Region: phys.Region{Start: at, End: until}, Perm: pb})
		}
		at = until
	}
	return out
}

// stretch returns the permission runs gives address at, where runs[i]
// is the first run ending after at, and the address that permission
// lasts until.
func stretch(runs []EPTMapping, i int, at phys.Addr) (Perm, phys.Addr) {
	switch {
	case i == len(runs):
		return PermNone, ^phys.Addr(0)
	case at < runs[i].Region.Start:
		return PermNone, runs[i].Region.Start
	}
	return runs[i].Perm, runs[i].Region.End
}

// Clear removes every mapping.
func (e *EPT) Clear() { e.install(nil) }

// Mappings returns the EPT contents as maximal runs of identically
// permissioned pages, in address order. Used for attestation enumeration
// and debugging dumps.
func (e *EPT) Mappings() []EPTMapping {
	if len(e.tab) == 0 {
		return nil
	}
	return append([]EPTMapping(nil), e.tab...)
}
