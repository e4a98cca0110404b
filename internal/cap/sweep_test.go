package cap

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
)

// sweepRegions are the regions the scoped sweeps are asked about in a
// world of the given pages: every one- and four-page span, the whole
// world, and a span that runs past its end.
func sweepRegions(pages uint64) []phys.Region {
	var out []phys.Region
	for start := uint64(0); start < pages; start++ {
		out = append(out, mem(start, 1).Mem)
		if start+4 <= pages {
			out = append(out, mem(start, 4).Mem)
		}
	}
	return append(out, mem(0, pages).Mem, mem(pages-1, 3).Mem)
}

// scopedSweepsMatchRefCounts compares each scoped sweep with what the
// all-owner RefCounts map implies, for every owner holding a capability
// and for one holding none: MaxOwners of a region is the highest count
// among the segments overlapping it, and AppendExclusive appends the
// {owner} segments merged, after a prefix it must leave alone.
func scopedSweepsMatchRefCounts(s *Space, regions []phys.Region) error {
	rcs := s.RefCounts()
	for _, r := range regions {
		want := 0
		for _, rc := range rcs {
			if rc.Region.Overlaps(r) {
				want = max(want, rc.Count)
			}
		}
		if got := s.MaxOwners(r); got != want {
			return fmt.Errorf("MaxOwners(%v) = %d, RefCounts says %d: %v", r, got, want, rcs)
		}
	}
	prefix := phys.MakeRegion(1<<40, pg)
	for _, o := range append(s.Owners(), 99) {
		var excl []phys.Region
		for _, rc := range rcs {
			if len(rc.Owners) == 1 && rc.Owners[0] == o {
				excl = append(excl, rc.Region)
			}
		}
		excl = phys.NormalizeRegions(excl)
		if got := s.AppendExclusive([]phys.Region{prefix}, o); got[0] != prefix || !slices.Equal(got[1:], excl) {
			return fmt.Errorf("AppendExclusive(%d) = %v, RefCounts says %v after the prefix: %v", o, got, excl, rcs)
		}
	}
	return nil
}

// clippedGrantsMatchClip compares each owner's grants clipped to each
// region with what clipping its whole grant list gives — the node walk
// that skips nodes missing the region must drop nothing and keep
// nothing more — for every owner holding a capability and for one
// holding none, after a prefix it must leave alone.
func clippedGrantsMatchClip(s *Space, regions []phys.Region) error {
	prefix := MemoryGrant{Region: phys.MakeRegion(1<<40, pg), Rights: RightRead, Node: 1 << 30}
	for _, o := range append(s.Owners(), 99) {
		all := s.AppendOwnerMemoryGrants(nil, o)
		for _, r := range regions {
			want := []MemoryGrant{prefix}
			for _, g := range all {
				if g.Region = g.Region.Intersect(r); !g.Region.Empty() {
					want = append(want, g)
				}
			}
			if got := s.AppendOwnerMemoryGrantsIn([]MemoryGrant{prefix}, o, r); !slices.Equal(got, want) {
				return fmt.Errorf("AppendOwnerMemoryGrantsIn(%d, %v) = %v, the clip of its grants %v is %v", o, r, got, all, want)
			}
		}
	}
	return nil
}

// onRandomForests runs check every fifth step of random forests —
// overlapping roots of three owners (each holding several pieces),
// shares and grants among six, revocations, and detaches kept
// unreleased for a while, so a detached grant still carves its parent.
func onRandomForests(t *testing.T, check func(*Space) error) {
	t.Helper()
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &propHarness{t: t, s: NewSpace(), rng: rng}
		for o := OwnerID(1); o <= 3; o++ {
			for i := 0; i < 2; i++ {
				start := uint64(rng.Intn(propPages / 2))
				id, err := h.s.CreateRoot(o, mem(start, uint64(rng.Intn(propPages/2)+1)), MemFull, CleanNone)
				if err != nil {
					t.Fatal(err)
				}
				h.ids = append(h.ids, id)
			}
		}
		var held []*Detached
		checkedHeld := 0 // checks made while a detach was held
		for step := 0; step < 150; step++ {
			switch rng.Intn(8) {
			case 0: // detach a subtree and hold it unreleased
				if len(h.ids) > 0 {
					if det, err := h.s.Detach(h.ids[rng.Intn(len(h.ids))]); err == nil {
						held = append(held, det)
					}
					h.compactIDs()
				}
			case 1: // release the oldest held detach
				if len(held) > 0 {
					h.s.Release(held[0])
					held = held[1:]
				}
			default:
				h.randomOp()
			}
			if step%5 == 0 {
				if err := check(h.s); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				if h.s.LimboNodes() > 0 {
					checkedHeld++
				}
			}
		}
		if checkedHeld == 0 {
			t.Fatalf("seed %d: no check ran while a detach was held", seed)
		}
	}
}

// TestScopedSweepsMatchRefCounts: on random forests every scoped answer
// equals what RefCounts implies. The exhaustive model and the random
// property harness run the same comparison on their states.
func TestScopedSweepsMatchRefCounts(t *testing.T) {
	regions := sweepRegions(propPages)
	onRandomForests(t, func(s *Space) error { return scopedSweepsMatchRefCounts(s, regions) })
}

// TestClippedGrantsMatchClip: on random forests an owner's grants
// clipped to a region — what a scoped rebuild derives from — are the
// clip of its whole grant list. The exhaustive model and the random
// property harness run the same comparison on their states.
func TestClippedGrantsMatchClip(t *testing.T) {
	regions := sweepRegions(propPages)
	onRandomForests(t, func(s *Space) error { return clippedGrantsMatchClip(s, regions) })
}

// TestScopedSweepAllocationPins: the questions a migration hop asks of
// the space about one tenant — how many owners share a region at most,
// what its death would leave unowned (into the caller's buffer), how
// many share a core (its attestation asks once per core) — allocate
// nothing, over a tenant whose grants split its grantor's piece, with a
// neighbour sharing next to one of them.
func TestScopedSweepAllocationPins(t *testing.T) {
	s := NewSpace()
	root := mustRoot(t, s, 1, mem(0, 64), MemFull)
	heap, err := s.Grant(root, 2, mem(8, 32), MemRW|RightShare|RightGrant, CleanZero)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []uint64{9, 20, 30} {
		if _, err := s.Grant(heap, 3, mem(p, 1), MemRW, CleanZero); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Share(heap, 4, mem(21, 4), MemRW, CleanNone); err != nil {
		t.Fatal(err)
	}
	core := mustRoot(t, s, 1, CoreResource(0), CoreFull)
	for _, o := range []OwnerID{2, 3, 3} {
		if _, err := s.Share(core, o, CoreResource(0), RightRun, CleanNone); err != nil {
			t.Fatal(err)
		}
	}
	grant := mem(20, 1).Mem
	var buf [8]phys.Region
	for _, q := range []struct {
		name string
		run  func()
	}{
		{"MaxOwners of a grant", func() {
			if got := s.MaxOwners(grant); got != 1 {
				t.Fatalf("MaxOwners of the tenant's grant = %d, want 1", got)
			}
		}},
		{"MaxOwners across a neighbour", func() {
			if got := s.MaxOwners(mem(20, 3).Mem); got != 2 {
				t.Fatalf("MaxOwners over the grant and its neighbour = %d, want 2", got)
			}
		}},
		{"AppendExclusive", func() {
			if got := s.AppendExclusive(buf[:0], 3); len(got) != 3 {
				t.Fatalf("tenant's exclusive memory %v, want its three pages", got)
			}
		}},
		{"CoreRefCount", func() {
			if got := s.CoreRefCount(0); got != 3 {
				t.Fatalf("core 0 is shared by %d owners, want 3 (one of them twice)", got)
			}
		}},
	} {
		if n := testing.AllocsPerRun(100, q.run); n != 0 {
			t.Errorf("%s allocates %v objects, want 0", q.name, n)
		}
	}
}
