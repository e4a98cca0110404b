package backend_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/tyche-sim/tyche/internal/backend"
	pmpbk "github.com/tyche-sim/tyche/internal/backend/pmp"
	"github.com/tyche-sim/tyche/internal/backend/vtx"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

const derivePages = 96

// pageModel is the brute-force reference of a derivation: for each page,
// the OR of the permissions of every grant covering it.
func pageModel(grants []cap.MemoryGrant, strip cap.Rights) (perms [derivePages + 1]hw.Perm) {
	for _, g := range grants {
		for p := g.Region.Start.Page(); p < g.Region.End.Page(); p++ {
			perms[p] |= backend.RightsToPerm(g.Rights &^ strip)
		}
	}
	return perms
}

// checkSegments holds segs to the canonical form both filters are
// programmed from and to the page model.
func checkSegments(segs []backend.Segment, model [derivePages + 1]hw.Perm) error {
	var got [derivePages + 1]hw.Perm
	for i, s := range segs {
		if s.Perm == hw.PermNone || s.Region.Validate() != nil {
			return fmt.Errorf("segment %v is empty, unaligned or permissionless", s)
		}
		if i > 0 && (segs[i-1].Region.End > s.Region.Start || segs[i-1].Region.End == s.Region.Start && segs[i-1].Perm == s.Perm) {
			return fmt.Errorf("segments %v and %v overlap, are out of order or should have merged", segs[i-1], s)
		}
		for p := s.Region.Start.Page(); p < s.Region.End.Page(); p++ {
			got[p] = s.Perm
		}
	}
	if got != model {
		return fmt.Errorf("segments %v give pages %v, grant by grant they are %v", segs, got, model)
	}
	return nil
}

// TestDerivationMatchesPageModel: random overlapping grant sets — shares
// of overlapping sub-ranges with different rights, some carved by grants
// further down — derived through the pooled entry point and programmed
// by both backends, against the page-by-page model. The domains are
// rebuilt one after another through the shared scratch pool.
func TestDerivationMatchesPageModel(t *testing.T) {
	rights := []cap.Rights{cap.RightRead, cap.MemRW, cap.MemRWX, cap.RightRead | cap.RightExec, cap.RightShare}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, s := newWorld(t, 64)
		root, err := s.CreateRoot(1, mem(0, derivePages), cap.MemFull, cap.CleanNone)
		if err != nil {
			t.Fatal(err)
		}
		dev, err := s.CreateRoot(1, cap.DeviceResource(0), cap.DeviceFull, cap.CleanNone)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4+rng.Intn(12); i++ {
			start := uint64(rng.Intn(derivePages - 8))
			res := mem(start, uint64(1+rng.Intn(8)))
			r := rights[rng.Intn(len(rights))] | cap.RightGrant
			id, err := s.Share(root, 2, res, r, cap.CleanNone)
			if err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) == 0 { // carve the share from inside
				sub := phys.MakeRegion(res.Mem.Start+phys.Addr(rng.Intn(int(res.Mem.Pages())))*pg, pg)
				if _, err := s.Grant(id, 3, cap.MemResource(sub), r&^cap.RightGrant, cap.CleanNone); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := s.Share(dev, 2, cap.DeviceResource(0), cap.RightDMA, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		bkV := vtx.New(m, s)
		bkP, err := pmpbk.New(m, s, phys.Region{})
		if err != nil {
			t.Fatal(err)
		}
		owners := []cap.OwnerID{1, 2, 3}
		for _, o := range owners {
			func() {
				model := pageModel(s.OwnerMemoryGrants(o), 0)
				if err := backend.WithSegments(s, 0, phys.AllMemory, func(segs []backend.Segment, _ *[]backend.Segment) error { return checkSegments(segs, model) }, o); err != nil {
					t.Errorf("seed %d owner %d: %v", seed, o, err)
				}
				// A scoped derivation is the model on the scope's pages
				// and nothing elsewhere.
				scope := mem(uint64(o)*derivePages/5, derivePages/3).Mem
				scoped := model
				for p := range scoped {
					if !scope.Contains(phys.Addr(p) * pg) {
						scoped[p] = hw.PermNone
					}
				}
				if err := backend.WithSegments(s, 0, scope, func(segs []backend.Segment, _ *[]backend.Segment) error { return checkSegments(segs, scoped) }, o); err != nil {
					t.Errorf("seed %d owner %d, scope %v: %v", seed, o, scope, err)
				}
				if err := checkSegments(backend.FlattenGrants(s.OwnerMemoryGrants(o)), model); err != nil {
					t.Errorf("seed %d owner %d, FlattenGrants: %v", seed, o, err)
				}
				if err := bkV.InstallDomain(o); err != nil {
					t.Errorf("seed %d: vtx install %d: %v", seed, o, err)
					return
				}
				ctx, err := bkV.Context(o, 0)
				if err != nil {
					t.Error(err)
					return
				}
				for p, want := range model {
					if got := ctx.Filter.Lookup(phys.Addr(p) * pg); got != want {
						t.Errorf("seed %d owner %d page %d: EPT %v, model %v", seed, o, p, got, want)
					}
				}
				var over *backend.PMPExhaustedError
				if err := bkP.InstallDomain(o); errors.As(err, &over) {
					return // a layout past the budget programs nothing
				} else if err != nil {
					t.Errorf("seed %d: pmp install %d: %v", seed, o, err)
				}
			}()
		}
		for _, o := range owners { // PMP files are per core: program them one at a time
			if err := bkP.Transition(m.Cores[1], o, false); err != nil {
				continue // not installed: over budget above
			}
			for p, want := range pageModel(s.OwnerMemoryGrants(o), 0) {
				if got := m.Cores[1].PMPUnit.Lookup(phys.Addr(p) * pg); got != want {
					t.Errorf("seed %d owner %d page %d: PMP %v, model %v", seed, o, p, got, want)
				}
			}
		}
		// The device path: every DMA holder's grants in one flatten, execute
		// stripped.
		var all []cap.MemoryGrant
		for _, o := range s.AppendDeviceDMAHolders(nil, 0) {
			all = append(all, s.OwnerMemoryGrants(o)...)
		}
		filter := deviceFilter(t, s, 0)
		for p, want := range pageModel(all, cap.RightExec) {
			if got := filter.Lookup(phys.Addr(p) * pg); got != want {
				t.Errorf("seed %d device page %d: filter %v, model %v", seed, p, got, want)
			}
		}
	}
}

// poolKeepsItems reports whether a sync.Pool hands back what it was just
// given: under the race detector Put drops a quarter of its arguments on
// purpose, and an allocation pin over pooled scratch cannot hold.
func poolKeepsItems() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return false
		}
	}
	return true
}

// TestSyncDomainAllocationPins: a rebuild allocates nothing — not for a
// view that did not change, whole or over a scope (a range a grant
// split, a range no grant touches), and not for one that did, whose new
// table is spliced into the EPT's spare buffer and swapped in.
func TestSyncDomainAllocationPins(t *testing.T) {
	if !poolKeepsItems() {
		t.Skip("sync.Pool drops items here (race detector): scratch is reallocated at random")
	}
	m, s := resyncWorld(t)
	bk := vtx.New(m, s)
	for _, o := range []cap.OwnerID{1, 2} {
		if err := bk.InstallDomain(o); err != nil {
			t.Fatal(err)
		}
	}
	sync := func(o cap.OwnerID) {
		if err := bk.SyncDomain(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range []cap.OwnerID{1, 2} {
		if n := testing.AllocsPerRun(100, func() { sync(o) }); n != 0 {
			t.Errorf("SyncDomain(%d) of an unchanged view allocates %v objects, want 0", o, n)
		}
		for _, scope := range []phys.Region{mem(890, 20).Mem, mem(3000, 4).Mem} {
			if n := testing.AllocsPerRun(100, func() {
				if err := bk.SyncDomainRange(o, scope); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("SyncDomainRange(%d, %v) of an unchanged range allocates %v objects, want 0", o, scope, n)
			}
		}
	}
	root := s.OwnerNodes(1)[0].ID
	var shares []cap.NodeID
	for i := uint64(0); i < 2*51; i++ { // AllocsPerRun warms up with one extra run
		id, err := s.Share(root, 2, mem(3000+2*i, 1), cap.MemRW, cap.CleanNone)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, id)
	}
	sync(2)
	revoke := func() {
		if _, err := s.Revoke(shares[len(shares)-1]); err != nil {
			t.Fatal(err)
		}
		shares = shares[:len(shares)-1]
	}
	alone := testing.AllocsPerRun(50, revoke)
	if n := testing.AllocsPerRun(50, func() { revoke(); sync(2) }) - alone; n != 0 {
		t.Errorf("SyncDomain of a changed view allocates %v objects, want 0", n)
	}
}
