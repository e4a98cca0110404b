package hw

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/tyche-sim/tyche/internal/phys"
)

// EPT models a second-level (nested) page table: the per-domain
// access-control structure a VT-x backend programs. It maps physical
// pages to permissions at page granularity. Because the monitor manages
// physical names, the translation is identity and the EPT is purely an
// access filter (§3.3: "memory virtualization provides a second level of
// page tables to enforce memory access control at page granularity").
//
// The contents are an immutable extent table: disjoint runs of
// identically permissioned pages, sorted by address, adjacent equal runs
// merged, no empty or PermNone run. Cores walk the table while the
// monitor reprograms it on another core, so the publish discipline is:
//
//   - readers load the table pointer once and binary-search it — no lock,
//     and a table never changes after it is published;
//   - a writer builds the next table off to the side, publishes it with
//     one pointer store, and only then bumps the generation once. A
//     reader therefore sees the old filter or the new one, never a
//     half-built one, and a new generation implies the new table;
//   - a Replace diffs the next table against the published one and
//     reports the changed extents, which are all a resync pays for and
//     traces; one whose table equals the published one stores nothing
//     and reports nothing: same filter, same pointer, generation still
//     moves — a resync is a resync to everything keyed on the
//     generation (TLB tags, contexts), whether or not it changed the
//     filter.
//
// Writers (copy-on-write splices for Map/Unmap, whole-table Replace and
// Clear) are serialised by wmu; readers never take it.
type EPT struct {
	wmu sync.Mutex
	tab atomic.Pointer[[]EPTMapping]
	gen atomic.Uint64
}

// EPTMapping is one contiguous run of identically permissioned pages.
type EPTMapping struct {
	Region phys.Region
	Perm   Perm
}

func (m EPTMapping) String() string { return fmt.Sprintf("%v %v", m.Region, m.Perm) }

// NewEPT returns an empty EPT denying all access.
func NewEPT() *EPT { return &EPT{} }

func (e *EPT) runs() []EPTMapping {
	if t := e.tab.Load(); t != nil {
		return *t
	}
	return nil
}

// publish makes runs the live table: one store, then one generation
// bump (wmu held).
func (e *EPT) publish(runs []EPTMapping) {
	e.tab.Store(&runs)
	e.gen.Add(1)
}

// Check implements AccessFilter.
func (e *EPT) Check(a phys.Addr, want Perm) bool {
	return e.Lookup(a).Allows(want)
}

// Lookup implements AccessFilter: a binary search for the run holding a.
func (e *EPT) Lookup(a phys.Addr) Perm {
	runs := e.runs()
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
func (e *EPT) Generation() uint64 { return e.gen.Load() }

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
	e.wmu.Lock()
	defer e.wmu.Unlock()
	old := e.runs()
	next := make([]EPTMapping, 0, len(old)+2)
	i := 0
	for ; i < len(old) && old[i].Region.End <= r.Start; i++ {
		next = append(next, old[i])
	}
	if i < len(old) && old[i].Region.Start < r.Start {
		next = append(next, EPTMapping{Region: phys.Region{Start: old[i].Region.Start, End: r.Start}, Perm: old[i].Perm})
	}
	if p != PermNone {
		next = appendRun(next, EPTMapping{Region: r, Perm: p})
	}
	for ; i < len(old) && old[i].Region.End <= r.End; i++ {
	}
	if i < len(old) && old[i].Region.Start < r.End {
		next = appendRun(next, EPTMapping{Region: phys.Region{Start: r.End, End: old[i].Region.End}, Perm: old[i].Perm})
		i++
	}
	for ; i < len(old); i++ {
		next = appendRun(next, old[i])
	}
	e.publish(next)
	return nil
}

// Unmap removes all permissions for region r.
func (e *EPT) Unmap(r phys.Region) error { return e.Map(r, PermNone) }

// Replace publishes runs as the whole table in one step: no reader can
// observe a mix of the old and the new filter. runs must be page-aligned,
// non-empty, sorted by address and disjoint; otherwise Replace returns an
// error and leaves the table and the generation unchanged. PermNone runs
// are dropped and adjacent equal-permission runs merged.
//
// Replace sweeps the new table against the published one and returns
// what the rebuild writes: every maximal extent of pages whose
// permission differs, with its new permission (PermNone for pages no
// longer mapped), in address order. The extents reuse buf's storage, so
// a caller that keeps buf allocates nothing for them. The table keeps
// its own copy of runs, made only when some extent changed; the
// generation is bumped either way.
func (e *EPT) Replace(runs, buf []EPTMapping) (changed []EPTMapping, err error) {
	var stack [32]EPTMapping // larger tables spill to the heap
	next := stack[:0]
	var end phys.Addr
	for _, m := range runs {
		if err := m.Region.Validate(); err != nil {
			return buf[:0], fmt.Errorf("hw: ept replace: %w", err)
		}
		if m.Region.Start < end {
			return buf[:0], fmt.Errorf("hw: ept replace: run %v unsorted or overlapping (previous run ends at %v)", m.Region, end)
		}
		end = m.Region.End
		if m.Perm != PermNone {
			next = appendRun(next, m)
		}
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	changed = diffRuns(e.runs(), next, buf[:0])
	if len(changed) == 0 {
		e.gen.Add(1)
		return changed, nil
	}
	e.publish(slices.Clone(next))
	return changed, nil
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
func (e *EPT) Clear() {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	e.publish(nil)
}

// MappedPages returns the number of pages with any permission.
func (e *EPT) MappedPages() int {
	var n uint64
	for _, m := range e.runs() {
		n += m.Region.Pages()
	}
	return int(n)
}

// Mappings returns the EPT contents as maximal runs of identically
// permissioned pages, in address order. Used for attestation enumeration
// and debugging dumps.
func (e *EPT) Mappings() []EPTMapping {
	runs := e.runs()
	if len(runs) == 0 {
		return nil
	}
	return append([]EPTMapping(nil), runs...)
}
