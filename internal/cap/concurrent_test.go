package cap

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
)

// TestSpaceConcurrentMatchesModel interleaves delegators and readers on
// one Space, round-robin. Each delegator owns a disjoint owner pair and a
// private slab of pages, on which every answer is predictable and is
// asserted after every step (the per-worker model); all of them also
// delegate through the common owners 2 and 3 and compete for the same
// cores and devices, where only the set of permitted errors is
// predictable. After every delegator's round a reader runs every
// per-owner query and every sweep and compares the owner lists with the
// index in whatever state the writers last left. Between phases the
// sequential oracles run on the result.
func TestSpaceConcurrentMatchesModel(t *testing.T) {
	const (
		workers  = 6
		slab     = 8 // pages per worker; the commons start after the slabs
		phases   = 3
		rounds   = 25
		commons  = workers * slab
		nCoreDev = 4
	)
	s := NewSpace()
	root := mustRoot(t, s, 1, mem(0, propPages), MemFull)
	var coreRoot, devRoot [nCoreDev]NodeID
	for i := range coreRoot {
		coreRoot[i] = mustRoot(t, s, 1, CoreResource(phys.CoreID(i)), CoreFull)
		devRoot[i] = mustRoot(t, s, 1, DeviceResource(phys.DeviceID(i)), DeviceFull)
	}
	slabs := make([]NodeID, workers)
	for w := range slabs {
		id, err := s.Share(root, OwnerID(10+2*w), mem(uint64(w*slab), slab), MemFull, CleanZero)
		if err != nil {
			t.Fatal(err)
		}
		slabs[w] = id
	}
	baseline := s.NumNodes()
	owners := []OwnerID{1, 2, 3, 99}
	for w := 0; w < workers; w++ {
		owners = append(owners, OwnerID(10+2*w), OwnerID(11+2*w))
	}

	// among reports whether err is nil or one of the errors a race for a
	// common owner or resource may lose with.
	among := func(err error, allowed ...error) bool {
		return err == nil || slices.ContainsFunc(allowed, func(a error) bool { return errors.Is(err, a) })
	}

	delegate := func(w, round int) {
		a, b := OwnerID(10+2*w), OwnerID(11+2*w)
		base := uint64(w * slab)
		at := func(page uint64) phys.Addr { return phys.Addr((base + page) * pg) }
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("worker %d round %d: "+format, append([]any{w, round}, args...)...)
		}

		// The private pair: exact answers.
		sh, err := s.Share(slabs[w], b, mem(base, 2), MemRW|RightShare, CleanZero)
		if err != nil {
			fail("share: %v", err)
			return
		}
		gr, err := s.Grant(slabs[w], b, mem(base+2, 2), MemRW, CleanZero)
		if err != nil {
			fail("grant: %v", err)
			return
		}
		if !s.CheckMemAccess(a, at(0), RightWrite) || !s.CheckMemAccess(b, at(0), RightWrite) {
			fail("a shared page is not accessible to both")
		}
		if s.CheckMemAccess(a, at(2), RightRead) || !s.CheckMemAccess(b, at(3), RightRead) {
			fail("a granted page is not exclusive to the receiver")
		}
		if got := s.RefCountAt(at(0)); got != 3 { // owner 1, a, b
			fail("shared page refcount %d, want 3", got)
		}
		if got := s.RefCountAt(at(2)); got != 2 { // owner 1, b
			fail("granted page refcount %d, want 2", got)
		}
		if _, err := s.Grant(slabs[w], b, mem(base+3, 1), MemRW, CleanZero); !errors.Is(err, ErrSubresource) {
			fail("re-grant of a granted page: %v", err)
		}
		s.Seal(b)
		if _, err := s.Share(slabs[w], b, mem(base+5, 1), MemRW, CleanNone); !s.Sealed(b) || !errors.Is(err, ErrSealed) {
			fail("sealed owner received a capability: %v", err)
		}
		if round%2 == 0 {
			det, err := s.Detach(gr)
			if err != nil {
				fail("detach: %v", err)
				return
			}
			if s.CheckMemAccess(b, at(2), RightRead) || s.CheckMemAccess(a, at(2), RightRead) {
				fail("detached grant: the receiver kept access or the grantor regained it before Release")
			}
			s.Release(det)
			if !s.CheckMemAccess(a, at(2), RightRead) {
				fail("Release did not restore the grantor's access")
			}
		}
		// Only a granted top's parent regains access on release: a when
		// the grant is still held, nobody when only the share is.
		det := s.DetachOwner(b)
		want, parents := 1, []OwnerID{}
		if round%2 == 1 {
			want, parents = 2, []OwnerID{a}
		}
		if len(det.Actions()) != want || !slices.Equal(det.ParentOwners(), parents) {
			fail("DetachOwner took %d nodes (want %d) off parents %v (want %v)", len(det.Actions()), want, det.ParentOwners(), parents)
		}
		if s.Sealed(b) || s.CheckMemAccess(b, at(0), RightRead) || len(s.OwnerNodes(b)) != 0 {
			fail("a detached owner is still sealed or still holds something")
		}
		s.Release(det)
		if _, err := s.Node(sh); !errors.Is(err, ErrNotFound) {
			fail("shared node survived its owner: %v", err)
		}
		if eff, err := s.EffectiveRegions(slabs[w]); err != nil || !reflect.DeepEqual(eff, []phys.Region{mem(base, slab).Mem}) {
			fail("slab effective regions %v (%v) after the round", eff, err)
		}
		if got := s.OwnerMemoryGrants(a); len(got) != 1 || got[0].Node != slabs[w] {
			fail("owner %d grants %v after the round", a, got)
		}

		// The commons: overlapping regions through owners every worker
		// uses, one of which worker 0 keeps sealing and tearing down.
		c2, err := s.Share(root, 2, mem(uint64(commons+w), 3), MemFull, CleanZero)
		if err != nil {
			fail("share to common owner: %v", err)
			return
		}
		if _, err := s.Share(c2, 3, mem(uint64(commons+w), 2), MemRW|RightShare, CleanNone); !among(err, ErrSealed) {
			fail("share 2->3: %v", err)
		}
		if _, err := s.Grant(c2, 3, mem(uint64(commons+w+2), 1), MemRW, CleanZero); !among(err, ErrSealed) {
			fail("grant 2->3: %v", err)
		}
		if w == 0 {
			if round%3 == 0 {
				s.Seal(3)
			}
			s.Release(s.DetachOwner(3))
		}
		// Cores and devices are delegated whole: a share works unless
		// another worker's grant of the core landed first (a granted-away
		// core is not the grantor's to delegate), and only one grant at a
		// time does.
		k := (w + round) % nCoreDev
		cs, err := s.Share(coreRoot[k], a, CoreResource(phys.CoreID(k)), RightRun, CleanNone)
		if !among(err, ErrSubresource) || err == nil && !s.OwnerHasCore(a, phys.CoreID(k)) {
			fail("core share: %v", err)
			return
		}
		cg, errC := s.Grant(coreRoot[k], b, CoreResource(phys.CoreID(k)), RightRun, CleanNone)
		dg, errD := s.Grant(devRoot[k], b, DeviceResource(phys.DeviceID(k)), RightUse|RightDMA, CleanNone)
		if !among(errC, ErrSubresource) || !among(errD, ErrSubresource) {
			fail("core/device grant: %v / %v", errC, errD)
		}
		if errC == nil && (s.OwnerHasCore(1, phys.CoreID(k)) || !s.OwnerHasCore(b, phys.CoreID(k))) {
			fail("granted core %d is not exclusive", k)
		}
		if errD == nil && !slices.Equal(s.AppendDeviceDMAHolders(nil, phys.DeviceID(k)), []OwnerID{b}) {
			fail("granted device %d DMA holders %v", k, s.AppendDeviceDMAHolders(nil, phys.DeviceID(k)))
		}
		for _, id := range []NodeID{c2, cs, cg, dg} {
			if id == 0 {
				continue // the delegation lost its race
			}
			acts, err := s.Revoke(id)
			if err != nil || len(acts) == 0 || acts[len(acts)-1].Node != id {
				fail("revoke %d: %v, %v", id, acts, err)
			}
		}
	}

	read := func() {
		gen0 := s.Generation()
		for _, o := range owners {
			infos := s.OwnerNodes(o)
			if !slices.IsSortedFunc(infos, func(x, y Info) int { return int(x.ID) - int(y.ID) }) {
				t.Errorf("OwnerNodes(%d) out of ID order", o)
			}
			for _, inf := range infos {
				if got, err := s.Node(inf.ID); err == nil && got.Owner != o {
					t.Errorf("node %d changed owner", inf.ID)
				}
				_, _, _, _ = s.NodeOwners(inf.ID)
				_, _ = s.EffectiveRegions(inf.ID)
			}
			s.OwnerMemoryGrants(o)
			s.OwnerMemory(o, RightWrite)
			s.OwnerCores(o)
			s.OwnerDevices(o)
			s.AppendOwnerDMADevices(nil, o)
			s.OwnerHasCore(o, 0)
			slices.Contains(s.OwnerDevices(o), 1)
			s.Sealed(o)
		}
		// Owner 1 never loses the last commons page, and nobody else
		// ever gets it.
		if last := phys.Addr((propPages - 1) * pg); !s.CheckMemAccess(1, last, RightWrite) || s.RefCountAt(last) != 1 {
			t.Errorf("the undelegated page is not exclusively owner 1's")
		}
		var end phys.Addr
		for _, rc := range s.RefCounts() {
			if rc.Region.Start < end || rc.Count != len(rc.Owners) || !slices.IsSorted(rc.Owners) {
				t.Errorf("malformed refcount segment %v", rc)
			}
			end = rc.Region.End
		}
		if !slices.IsSorted(s.Owners()) {
			t.Errorf("Owners() unsorted")
		}
		s.CoreRefCount(2)
		s.DeviceRefCount(2)
		s.AppendDeviceUsers(nil, 3)
		s.TreeString()
		// Every mutation bumps the generation, which never goes back.
		if gen := s.Generation(); gen < gen0 || s.NumNodes() < baseline || s.LimboNodes() < 0 {
			t.Errorf("counters: gen %d after %d, nodes %d limbo %d", gen, gen0, s.NumNodes(), s.LimboNodes())
		}
		if err := ownedMatchesIndex(s); err != nil {
			t.Error(err)
		}
	}

	for phase := 0; phase < phases && !t.Failed(); phase++ {
		for r := 0; r < rounds && !t.Failed(); r++ {
			for w := 0; w < workers; w++ {
				delegate(w, phase*rounds+r)
				read()
			}
		}
		if t.Failed() {
			return
		}
		(&propHarness{t: t, s: s}).checkInvariants()
		if s.LimboNodes() != 0 || s.NumNodes() != baseline {
			t.Fatalf("phase %d left %d nodes in limbo and %d indexed (want 0 and %d)", phase, s.LimboNodes(), s.NumNodes(), baseline)
		}
	}
}
