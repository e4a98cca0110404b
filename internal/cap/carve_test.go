package cap

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
)

// refEffectiveRegions is the effective-region computation page by page:
// every page of the node's region that no granted child holds, merged by
// NormalizeRegions. It is the reference the carve, the access checks and
// derive's overlap test are compared with.
func refEffectiveRegions(n *node) []phys.Region {
	if n.res.Kind != ResMemory {
		return nil
	}
	var regs []phys.Region
	for a := n.res.Mem.Start; a < n.res.Mem.End; a += phys.PageSize {
		granted := false
		for _, c := range n.children {
			granted = granted || c.kind == KindGranted && c.res.Kind == ResMemory && c.res.Mem.Contains(a)
		}
		if !granted {
			regs = append(regs, phys.MakeRegion(a, phys.PageSize))
		}
	}
	return phys.NormalizeRegions(regs)
}

// regionCovered reports whether want lies entirely within one of regs
// (regs must be normalized).
func regionCovered(want phys.Region, regs []phys.Region) bool {
	for _, r := range regs {
		if r.ContainsRegion(want) {
			return true
		}
	}
	return false
}

// carveMatchesReference compares, in a quiescent space, everything built
// on the carve with refEffectiveRegions: the appended regions of every
// node, derive's "not granted away" test for every page-aligned
// sub-region of every node, and CheckMemAccess and CheckMemRange over
// every page of every owner's nodes plus one page either side.
func carveMatchesReference(s *Space) error {
	prefix := []phys.Region{{Start: 1, End: 2}}
	for _, n := range s.nodes {
		ref := refEffectiveRegions(n)
		got := appendEffective(prefix, n)
		if got[0] != prefix[0] {
			return fmt.Errorf("node %d: carve overwrote the caller's prefix", n.id)
		}
		if got = got[1:]; len(got)+len(ref) != 0 && !reflect.DeepEqual(got, ref) {
			return fmt.Errorf("node %d: carve gives %v, the page-by-page reference gives %v", n.id, got, ref)
		}
		if n.res.Kind != ResMemory {
			continue
		}
		for start := n.res.Mem.Start; start < n.res.Mem.End; start += pg {
			for end := start + pg; end <= n.res.Mem.End; end += pg {
				sub := phys.Region{Start: start, End: end}
				if got, want := effectiveEnd(n, start) >= end, regionCovered(sub, ref); got != want {
					return fmt.Errorf("node %d: derive would find %v delegable = %v, the reference says %v", n.id, sub, got, want)
				}
			}
		}
	}
	for _, o := range append(s.Owners(), 99) {
		nodes := sweepOwned(s, o)
		refs := make([][]phys.Region, len(nodes))
		var lo, hi phys.Addr
		for i, n := range nodes {
			refs[i] = refEffectiveRegions(n)
			if n.res.Kind == ResMemory {
				if hi == 0 || n.res.Mem.Start < lo {
					lo = n.res.Mem.Start
				}
				hi = max(hi, n.res.Mem.End)
			}
		}
		if lo > 0 {
			lo -= pg
		}
		hi += pg
		for _, want := range []Rights{RightsNone, RightWrite, RightRead | RightWrite, RightExec | RightShare} {
			ref := func(a phys.Addr) bool {
				for i, n := range nodes {
					if n.rights.Has(want) && regionCovered(phys.Region{Start: a, End: a + 1}, refs[i]) {
						return true
					}
				}
				return false
			}
			var access []bool // by page from lo
			for a := lo; a < hi; a += pg {
				access = append(access, ref(a))
				if got := s.CheckMemAccess(o, a+pg/2, want); got != access[len(access)-1] {
					return fmt.Errorf("owner %d: CheckMemAccess(%v, %v) = %v, the reference says %v", o, a, want, got, !got)
				}
			}
			// Every span of up to six pages, and every span to the end.
			for i := range access {
				for j := i; j <= len(access); j++ {
					if j-i > 6 && j != len(access) {
						continue
					}
					wantBad, wantOK := phys.Addr(0), true
					for k := i; k < j; k++ {
						if !access[k] {
							wantBad, wantOK = lo+phys.Addr(k)*pg, false
							break
						}
					}
					r := phys.Region{Start: lo + phys.Addr(i)*pg, End: lo + phys.Addr(j)*pg}
					if bad, ok := s.CheckMemRange(o, r, want); ok != wantOK || bad != wantBad {
						return fmt.Errorf("owner %d: CheckMemRange(%v, %v) = (%v, %v), page by page it is (%v, %v)", o, r, want, bad, ok, wantBad, wantOK)
					}
				}
			}
		}
	}
	return nil
}

// TestCarveShapes pins the carve on the shapes a property run reaches
// rarely: cuts at either edge, a cut strictly inside, adjacent cuts, a
// cut covering the whole node, and a detached grant that still carves.
func TestCarveShapes(t *testing.T) {
	s := NewSpace()
	root := mustRoot(t, s, 1, mem(0, 16), MemFull)
	check := func(step string) {
		t.Helper()
		if err := carveMatchesReference(s); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	grant := func(start, pages uint64) NodeID {
		t.Helper()
		id, err := s.Grant(root, 2, mem(start, pages), MemRW|RightShare, CleanZero)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("grant [%d,+%d)", start, pages))
		return id
	}
	grant(0, 2)
	grant(14, 2)
	mid := grant(6, 2)
	grant(8, 1) // adjacent to the previous cut
	grant(4, 2)
	if got, _ := s.EffectiveRegions(root); !reflect.DeepEqual(got, []phys.Region{mem(2, 2).Mem, mem(9, 5).Mem}) {
		t.Fatalf("effective regions %v", got)
	}
	if _, err := s.Grant(root, 3, mem(5, 2), MemRW, CleanNone); err == nil {
		t.Fatal("a region overlapping two grants was granted again")
	}
	det, err := s.Detach(mid)
	if err != nil {
		t.Fatal(err)
	}
	check("detach")
	// Until Release — for good, if the monitor's cleanups fail and it
	// never comes — the parent stays suspended and the records count.
	if s.CheckMemAccess(1, phys.Addr(6*pg), RightRead) || s.LimboNodes() != len(det.Actions()) {
		t.Fatalf("a detached grant stopped suspending its parent before Release (limbo %d)", s.LimboNodes())
	}
	if _, err := s.Grant(root, 3, mem(6, 2), MemRW, CleanNone); err == nil {
		t.Fatal("the parent re-delegated a range whose detached grant was never released")
	}
	s.Release(det)
	check("release")
	if !s.CheckMemAccess(1, phys.Addr(6*pg), RightRead) || s.LimboNodes() != 0 {
		t.Fatalf("Release did not restore the parent's access (limbo %d)", s.LimboNodes())
	}
	inner := mustRoot(t, s, 4, mem(20, 2), MemFull)
	if _, err := s.Grant(inner, 5, mem(20, 2), MemRW, CleanNone); err != nil {
		t.Fatal(err)
	}
	check("whole node granted")
	if got, _ := s.EffectiveRegions(inner); len(got) != 0 {
		t.Fatalf("a node granted away whole keeps %v", got)
	}
}

// TestCapAllocationPins: what the monitor's control plane pays the
// allocator inside the capability engine. A range check allocates
// nothing; a share and its two-phase revocation allocate the records
// they keep (the node, its index and child-list entries, the Detached
// and its two lists) and nothing else.
func TestCapAllocationPins(t *testing.T) {
	s := NewSpace()
	root := mustRoot(t, s, 1, mem(0, 64), MemFull)
	heap, err := s.Share(root, 2, mem(8, 32), MemRW|RightShare|RightGrant, CleanZero)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []uint64{9, 20, 30} { // granted children either side of the ring
		if _, err := s.Grant(heap, 3, mem(p, 1), MemRW, CleanZero); err != nil {
			t.Fatal(err)
		}
	}
	ring := mem(12, 4).Mem
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := s.CheckMemRange(2, ring, RightRead|RightWrite); !ok {
			t.Fatal("the ring footprint is not accessible")
		}
	}); n != 0 {
		t.Errorf("CheckMemRange over a 4-page ring allocates %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		id, err := s.Share(heap, 3, mem(16, 1), MemRW, CleanZero)
		if err != nil {
			t.Fatal(err)
		}
		det, err := s.Detach(id)
		if err != nil {
			t.Fatal(err)
		}
		s.Release(det)
	}); n > 8 {
		t.Errorf("Share + Detach/Release allocates %v objects, want at most 8", n)
	}
}
