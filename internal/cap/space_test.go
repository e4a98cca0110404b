package cap

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
)

const (
	pg = phys.PageSize
)

func mem(start, pages uint64) Resource {
	return MemResource(phys.MakeRegion(phys.Addr(start*pg), pages*pg))
}

func mustRoot(t *testing.T, s *Space, owner OwnerID, res Resource, rights Rights) NodeID {
	t.Helper()
	id, err := s.CreateRoot(owner, res, rights, CleanNone)
	if err != nil {
		t.Fatalf("CreateRoot: %v", err)
	}
	return id
}

func TestCreateRootValidation(t *testing.T) {
	s := NewSpace()
	if _, err := s.CreateRoot(1, MemResource(phys.Region{Start: 5, End: 10}), MemFull, CleanNone); err == nil {
		t.Fatal("unaligned region accepted")
	}
	if _, err := s.CreateRoot(1, CoreResource(0), MemRWX, CleanNone); err == nil {
		t.Fatal("memory rights on a core accepted")
	}
	if _, err := s.CreateRoot(1, mem(0, 4), RightRun, CleanNone); err == nil {
		t.Fatal("run right on memory accepted")
	}
	s.Seal(7)
	if _, err := s.CreateRoot(7, mem(0, 4), MemFull, CleanNone); !errors.Is(err, ErrSealed) {
		t.Fatalf("sealed owner root: err = %v, want ErrSealed", err)
	}
}

func TestShareKeepsParentAccess(t *testing.T) {
	s := NewSpace()
	root := mustRoot(t, s, 1, mem(0, 8), MemFull)
	child, err := s.Share(root, 2, mem(2, 2), MemRW, CleanZero)
	if err != nil {
		t.Fatal(err)
	}
	if !s.CheckMemAccess(1, phys.Addr(2*pg), RightRead) {
		t.Fatal("sharer must keep access")
	}
	if !s.CheckMemAccess(2, phys.Addr(3*pg), RightWrite) {
		t.Fatal("sharee must gain access")
	}
	if s.CheckMemAccess(2, phys.Addr(4*pg), RightRead) {
		t.Fatal("sharee must not see beyond the shared subrange")
	}
	if got := s.RefCountAt(phys.Addr(2 * pg)); got != 2 {
		t.Fatalf("refcount = %d, want 2", got)
	}
	if got := s.RefCountAt(phys.Addr(1 * pg)); got != 1 {
		t.Fatalf("refcount outside share = %d, want 1", got)
	}
	info, err := s.Node(child)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != KindShared || info.Parent != root || info.Owner != 2 {
		t.Fatalf("child info = %+v", info)
	}
}

func TestGrantSuspendsParentAccess(t *testing.T) {
	s := NewSpace()
	root := mustRoot(t, s, 1, mem(0, 8), MemFull)
	g, err := s.Grant(root, 2, mem(2, 2), MemRWX, CleanObfuscate)
	if err != nil {
		t.Fatal(err)
	}
	if s.CheckMemAccess(1, phys.Addr(2*pg), RightRead) {
		t.Fatal("granter must lose access while grant is active")
	}
	if !s.CheckMemAccess(1, phys.Addr(1*pg), RightRead) {
		t.Fatal("granter keeps access outside the granted range")
	}
	if !s.CheckMemAccess(2, phys.Addr(2*pg), RightExec) {
		t.Fatal("grantee must gain access")
	}
	if got := s.RefCountAt(phys.Addr(2 * pg)); got != 1 {
		t.Fatalf("granted region refcount = %d, want 1 (exclusive)", got)
	}
	// Parent cannot share or re-grant what it granted away.
	if _, err := s.Share(root, 3, mem(2, 1), MemRW, CleanNone); !errors.Is(err, ErrSubresource) {
		t.Fatalf("share of granted-away region: err = %v", err)
	}
	if _, err := s.Grant(root, 3, mem(3, 1), MemRW, CleanNone); !errors.Is(err, ErrSubresource) {
		t.Fatalf("grant of granted-away region: err = %v", err)
	}
	// Revoking the grant restores the parent.
	acts, err := s.Revoke(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 1 || acts[0].Cleanup != CleanObfuscate || acts[0].Owner != 2 {
		t.Fatalf("cleanup actions = %v", acts)
	}
	if !s.CheckMemAccess(1, phys.Addr(2*pg), RightWrite) {
		t.Fatal("revoke must restore granter access")
	}
	if s.CheckMemAccess(2, phys.Addr(2*pg), RightRead) {
		t.Fatal("revoked grantee must lose access")
	}
}

func TestRightsAttenuation(t *testing.T) {
	s := NewSpace()
	root := mustRoot(t, s, 1, mem(0, 8), RightRead|RightShare)
	if _, err := s.Share(root, 2, mem(0, 1), MemRW, CleanNone); !errors.Is(err, ErrRights) {
		t.Fatalf("rights escalation: err = %v", err)
	}
	// Derived cap without RightShare cannot share further.
	child, err := s.Share(root, 2, mem(0, 2), RightRead, CleanNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Share(child, 3, mem(0, 1), RightRead, CleanNone); !errors.Is(err, ErrNoDelegation) {
		t.Fatalf("share without RightShare: err = %v", err)
	}
	// Grant requires RightGrant.
	if _, err := s.Grant(root, 3, mem(0, 1), RightRead, CleanNone); !errors.Is(err, ErrNoDelegation) {
		t.Fatalf("grant without RightGrant: err = %v", err)
	}
}

func TestSubresourceValidation(t *testing.T) {
	s := NewSpace()
	root := mustRoot(t, s, 1, mem(4, 4), MemFull)
	if _, err := s.Share(root, 2, mem(0, 2), MemRW, CleanNone); !errors.Is(err, ErrSubresource) {
		t.Fatalf("out-of-range share: err = %v", err)
	}
	if _, err := s.Share(root, 2, mem(7, 2), MemRW, CleanNone); !errors.Is(err, ErrSubresource) {
		t.Fatalf("straddling share: err = %v", err)
	}
	core := mustRoot(t, s, 1, CoreResource(3), CoreFull)
	if _, err := s.Share(core, 2, CoreResource(4), RightRun, CleanNone); !errors.Is(err, ErrSubresource) {
		t.Fatalf("different core: err = %v", err)
	}
	if _, err := s.Share(core, 2, mem(0, 1), RightRead, CleanNone); !errors.Is(err, ErrSubresource) {
		t.Fatalf("kind mismatch: err = %v", err)
	}
	if _, err := s.Share(0, 2, mem(0, 1), RightRead, CleanNone); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing node: err = %v", err)
	}
}

func TestCascadingRevocation(t *testing.T) {
	s := NewSpace()
	root := mustRoot(t, s, 1, mem(0, 16), MemFull)
	b, err := s.Share(root, 2, mem(0, 8), MemRW|RightShare, CleanZero)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Share(b, 3, mem(0, 4), MemRW|RightShare, CleanFlushCache)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Share(c, 4, mem(0, 2), MemRW, CleanNone)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.RefCountAt(0); got != 4 {
		t.Fatalf("refcount = %d, want 4", got)
	}
	acts, err := s.Revoke(b)
	if err != nil {
		t.Fatal(err)
	}
	// Children-first order: d, c, b.
	if len(acts) != 3 || acts[0].Node != d || acts[1].Node != c || acts[2].Node != b {
		t.Fatalf("actions = %v", acts)
	}
	for _, owner := range []OwnerID{2, 3, 4} {
		if s.CheckMemAccess(owner, 0, RightRead) {
			t.Fatalf("owner %d retains access after cascade", owner)
		}
	}
	if !s.CheckMemAccess(1, 0, RightRead) {
		t.Fatal("root owner must keep access")
	}
	if _, err := s.Node(c); !errors.Is(err, ErrNotFound) {
		t.Fatal("revoked node still present")
	}
	if got := s.RefCountAt(0); got != 1 {
		t.Fatalf("refcount after cascade = %d, want 1", got)
	}
}

func TestCircularSharingRevocationTerminates(t *testing.T) {
	s := NewSpace()
	// A(1) shares to B(2); B shares back to A; A shares that again to B.
	a := mustRoot(t, s, 1, mem(0, 4), MemFull)
	b, err := s.Share(a, 2, mem(0, 4), MemRW|RightShare, CleanNone)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Share(b, 1, mem(0, 2), MemRW|RightShare, CleanNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = s.Share(a2, 2, mem(0, 1), MemRW, CleanNone); err != nil {
		t.Fatal(err)
	}
	// Refcount counts distinct owners once despite multiple paths.
	if got := s.RefCountAt(0); got != 2 {
		t.Fatalf("refcount = %d, want 2 (distinct owners)", got)
	}
	acts, err := s.Revoke(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 3 {
		t.Fatalf("revoked %d nodes, want 3", len(acts))
	}
	if s.CheckMemAccess(2, 0, RightRead) {
		t.Fatal("B retains access after its lineage was revoked")
	}
	// A still has its root.
	if !s.CheckMemAccess(1, 0, RightRead) {
		t.Fatal("A lost its root access")
	}
	if got := s.RefCountAt(0); got != 1 {
		t.Fatalf("refcount = %d, want 1", got)
	}
}

func TestRevokeOwner(t *testing.T) {
	s := NewSpace()
	root := mustRoot(t, s, 1, mem(0, 16), MemFull)
	b1, _ := s.Share(root, 2, mem(0, 4), MemRW|RightShare, CleanZero)
	if _, err := s.Share(root, 2, mem(8, 4), MemRW, CleanNone); err != nil {
		t.Fatal(err)
	}
	// 2 shares onward to 3: dies with 2.
	if _, err := s.Share(b1, 3, mem(0, 2), MemRW, CleanNone); err != nil {
		t.Fatal(err)
	}
	det := s.DetachOwner(2)
	s.Release(det)
	if acts := det.Actions(); len(acts) != 3 {
		t.Fatalf("revoked %d nodes, want 3", len(acts))
	}
	if s.CheckMemAccess(2, 0, RightRead) || s.CheckMemAccess(3, 0, RightRead) {
		t.Fatal("access survived owner revocation")
	}
	if !s.CheckMemAccess(1, 0, RightRead) {
		t.Fatal("root owner affected")
	}
	if s.NumNodes() != 1 {
		t.Fatalf("nodes = %d, want 1", s.NumNodes())
	}
	det = s.DetachOwner(2)
	s.Release(det)
	if len(det.Actions()) != 0 {
		t.Fatal("second revocation should be a no-op")
	}
}

func TestSealSemantics(t *testing.T) {
	s := NewSpace()
	root := mustRoot(t, s, 1, mem(0, 16), MemFull)
	enclave, err := s.Share(root, 2, mem(0, 4), MemRWX|RightShare|RightGrant, CleanObfuscate)
	if err != nil {
		t.Fatal(err)
	}
	s.Seal(2)
	if !s.Sealed(2) {
		t.Fatal("seal not recorded")
	}
	// Sealed domain cannot receive more resources.
	if _, err := s.Share(root, 2, mem(8, 2), MemRW, CleanNone); !errors.Is(err, ErrSealed) {
		t.Fatalf("extend sealed: err = %v", err)
	}
	// But it can still share out (to spawn nested enclaves, §4.2).
	if _, err := s.Share(enclave, 3, mem(0, 1), MemRW, CleanNone); err != nil {
		t.Fatalf("sealed domain sharing out: %v", err)
	}
	// Teardown clears seal state.
	s.Release(s.DetachOwner(2))
	if s.Sealed(2) {
		t.Fatal("seal must clear on owner revocation")
	}
}

func TestCoreCapabilities(t *testing.T) {
	s := NewSpace()
	c0 := mustRoot(t, s, 1, CoreResource(0), CoreFull)
	mustRoot(t, s, 1, CoreResource(1), CoreFull)
	if got := s.OwnerCores(1); len(got) != 2 {
		t.Fatalf("cores = %v", got)
	}
	// Share core 0 with domain 2.
	if _, err := s.Share(c0, 2, CoreResource(0), RightRun, CleanFlushCache); err != nil {
		t.Fatal(err)
	}
	if !s.OwnerHasCore(2, 0) || s.OwnerHasCore(2, 1) {
		t.Fatal("core share wrong")
	}
	if s.CoreRefCount(0) != 2 || s.CoreRefCount(1) != 1 {
		t.Fatalf("core refcounts = %d,%d", s.CoreRefCount(0), s.CoreRefCount(1))
	}
	// Grant core 1 away: owner 1 loses it.
	c1list := s.OwnerNodes(1)
	var c1 NodeID
	for _, inf := range c1list {
		if inf.Resource.Kind == ResCore && inf.Resource.Core == 1 {
			c1 = inf.ID
		}
	}
	g, err := s.Grant(c1, 3, CoreResource(1), RightRun, CleanFlushCache)
	if err != nil {
		t.Fatal(err)
	}
	if s.OwnerHasCore(1, 1) {
		t.Fatal("granter retains core")
	}
	if !s.OwnerHasCore(3, 1) {
		t.Fatal("grantee lacks core")
	}
	if s.CoreRefCount(1) != 1 {
		t.Fatalf("core 1 refcount = %d", s.CoreRefCount(1))
	}
	// Double-grant of the same core fails.
	if _, err := s.Grant(c1, 4, CoreResource(1), RightRun, CleanNone); !errors.Is(err, ErrSubresource) {
		t.Fatalf("double core grant: err = %v", err)
	}
	if _, err := s.Revoke(g); err != nil {
		t.Fatal(err)
	}
	if !s.OwnerHasCore(1, 1) {
		t.Fatal("core not restored after revoke")
	}
}

// TestGrantedAwayCoreOrDeviceIsNotDelegable: a grant of a core or device
// suspends the grantor's use of it, and with it every delegation from
// that node — a share too, which would otherwise hand the core to a third
// owner behind the grantee's back. Revoking the grant restores both.
func TestGrantedAwayCoreOrDeviceIsNotDelegable(t *testing.T) {
	s := NewSpace()
	c := mustRoot(t, s, 1, CoreResource(1), CoreFull)
	d := mustRoot(t, s, 1, DeviceResource(0), DeviceFull)
	gc, err := s.Grant(c, 2, CoreResource(1), RightRun|RightShare, CleanNone)
	if err != nil {
		t.Fatal(err)
	}
	gd, err := s.Grant(d, 2, DeviceResource(0), RightUse|RightDMA|RightShare, CleanNone)
	if err != nil {
		t.Fatal(err)
	}
	gen, tree := s.Generation(), s.TreeString()
	for _, tc := range []struct {
		node NodeID
		res  Resource
		r    Rights
	}{{c, CoreResource(1), RightRun}, {d, DeviceResource(0), RightUse}} {
		if _, err := s.Share(tc.node, 3, tc.res, tc.r, CleanNone); !errors.Is(err, ErrSubresource) {
			t.Fatalf("share of granted-away %v: err = %v, want ErrSubresource", tc.res, err)
		}
		if _, err := s.Grant(tc.node, 3, tc.res, tc.r, CleanNone); !errors.Is(err, ErrSubresource) {
			t.Fatalf("re-grant of granted-away %v: err = %v, want ErrSubresource", tc.res, err)
		}
	}
	if s.OwnerHasCore(3, 1) || s.CoreRefCount(1) != 1 || s.DeviceRefCount(0) != 1 ||
		!slices.Equal(s.DeviceUsers(0), []OwnerID{2}) || !slices.Equal(s.DeviceDMAHolders(0), []OwnerID{2}) {
		t.Fatalf("refused delegations changed the holders: core refs %d, device users %v, DMA holders %v",
			s.CoreRefCount(1), s.DeviceUsers(0), s.DeviceDMAHolders(0))
	}
	if s.Generation() != gen || s.TreeString() != tree {
		t.Fatalf("refused delegations changed the space:\n%s", s.TreeString())
	}
	// The grantee may still delegate what it was granted.
	if _, err := s.Share(gc, 3, CoreResource(1), RightRun, CleanNone); err != nil {
		t.Fatalf("grantee's share of its core: %v", err)
	}
	for _, g := range []NodeID{gc, gd} {
		if _, err := s.Revoke(g); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Share(c, 3, CoreResource(1), RightRun, CleanNone); err != nil {
		t.Fatalf("share after the grant's revocation: %v", err)
	}
	if _, err := s.Share(d, 3, DeviceResource(0), RightUse, CleanNone); err != nil {
		t.Fatalf("device share after the grant's revocation: %v", err)
	}
}

func TestDeviceCapabilities(t *testing.T) {
	s := NewSpace()
	d := mustRoot(t, s, 1, DeviceResource(0), DeviceFull)
	if !slices.Contains(s.OwnerDevices(1), 0) {
		t.Fatal("owner lacks device")
	}
	if _, err := s.Share(d, 2, DeviceResource(0), RightUse|RightDMA, CleanNone); err != nil {
		t.Fatal(err)
	}
	if s.DeviceRefCount(0) != 2 {
		t.Fatalf("device refcount = %d", s.DeviceRefCount(0))
	}
	g, err := s.Grant(d, 3, DeviceResource(0), RightUse, CleanNone)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(s.OwnerDevices(1), 0) {
		t.Fatal("granter retains device")
	}
	// Domain 2's share is independent lineage: it still has the device.
	if !slices.Contains(s.OwnerDevices(2), 0) {
		t.Fatal("sharee lost device")
	}
	if _, err := s.Revoke(g); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(s.OwnerDevices(1), 0) {
		t.Fatal("device not restored")
	}
}

// TestOwnerDMADevicesInvertsDeviceDMAHolders: the question the monitor's
// device resync asks each owner and the one the backends ask each device
// are the same relation read in two directions, through every edit a
// device capability can undergo.
func TestOwnerDMADevicesInvertsDeviceDMAHolders(t *testing.T) {
	s := NewSpace()
	gpu := mustRoot(t, s, 1, DeviceResource(0), DeviceFull)
	nic := mustRoot(t, s, 1, DeviceResource(1), DeviceFull)
	derive := func(f func(NodeID, OwnerID, Resource, Rights, Cleanup) (NodeID, error), from NodeID, to OwnerID, dev phys.DeviceID, r Rights) NodeID {
		t.Helper()
		id, err := f(from, to, DeviceResource(dev), r, CleanNone)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	var shared, granted NodeID
	var det *Detached
	type holds map[OwnerID][]phys.DeviceID
	for _, step := range []struct {
		name string
		do   func()
		want holds
	}{
		{"boot", func() {}, holds{1: {0, 1}}},
		{"share gpu with 2, DMA included", func() {
			shared = derive(s.Share, gpu, 2, 0, RightUse|RightDMA|RightGrant)
		}, holds{1: {0, 1}, 2: {0}}},
		{"share nic with 3, use only", func() {
			derive(s.Share, nic, 3, 1, RightUse)
		}, holds{1: {0, 1}, 2: {0}}},
		{"2 grants its gpu share on to 3", func() {
			granted = derive(s.Grant, shared, 3, 0, RightUse|RightDMA)
		}, holds{1: {0, 1}, 3: {0}}},
		{"1 grants the nic away to 2", func() {
			derive(s.Grant, nic, 2, 1, RightUse|RightDMA)
		}, holds{1: {0}, 2: {1}, 3: {0}}},
		{"detach 3's gpu grant: 2 stays suspended", func() {
			var err error
			if det, err = s.Detach(granted); err != nil {
				t.Fatal(err)
			}
		}, holds{1: {0}, 2: {1}}},
		{"release: 2 has the gpu back", func() { s.Release(det) }, holds{1: {0}, 2: {0, 1}}},
		{"a second release changes nothing", func() { s.Release(det) }, holds{1: {0}, 2: {0, 1}}},
		{"2 is torn down: the nic returns to 1", func() { s.Release(s.DetachOwner(2)) }, holds{1: {0, 1}}},
	} {
		step.do()
		for o := OwnerID(1); o <= 4; o++ {
			got := s.AppendOwnerDMADevices(nil, o)
			if !reflect.DeepEqual(got, step.want[o]) {
				t.Errorf("%s: owner %d holds DMA on %v, want %v", step.name, o, got, step.want[o])
			}
			for d := phys.DeviceID(0); d < 3; d++ {
				if byDev, byOwner := slices.Contains(s.DeviceDMAHolders(d), o), slices.Contains(got, d); byDev != byOwner {
					t.Errorf("%s: owner %d on %v: DeviceDMAHolders says %v, OwnerDMADevices says %v", step.name, o, d, byDev, byOwner)
				}
			}
		}
	}
}

func TestRefCountsFigure4(t *testing.T) {
	// Reconstruct Figure 4's shape: a SaaS VM with a driver, a crypto
	// engine and a SaaS application, with confidential and shared
	// regions. Counts across the address space follow the figure's
	// 1,1,2,... pattern: exclusive regions count 1, the shared region
	// counts 2.
	s := NewSpace()
	const (
		saasVM = OwnerID(1)
		crypto = OwnerID(2)
		app    = OwnerID(3)
	)
	root := mustRoot(t, s, saasVM, mem(0, 64), MemFull)
	// Crypto engine: exclusive confidential pages 8-15.
	if _, err := s.Grant(root, crypto, mem(8, 8), MemRWX, CleanObfuscate); err != nil {
		t.Fatal(err)
	}
	// App: exclusive confidential pages 16-31.
	appCap, err := s.Grant(root, app, mem(16, 16), MemRWX|RightShare, CleanObfuscate)
	if err != nil {
		t.Fatal(err)
	}
	// Shared memory between app and crypto engine: pages 24-27 (app
	// shares out of its exclusive range).
	if _, err := s.Share(appCap, crypto, mem(24, 4), MemRW, CleanZero); err != nil {
		t.Fatal(err)
	}
	rcs := s.RefCounts()
	type want struct {
		start, pages uint64
		count        int
	}
	wants := []want{
		{0, 8, 1},   // VM-owned
		{8, 8, 1},   // crypto exclusive
		{16, 8, 1},  // app exclusive
		{24, 4, 2},  // app<->crypto shared
		{28, 4, 1},  // app exclusive
		{32, 32, 1}, // VM-owned
	}
	if len(rcs) != len(wants) {
		t.Fatalf("got %d segments %v, want %d", len(rcs), rcs, len(wants))
	}
	for i, w := range wants {
		r := phys.MakeRegion(phys.Addr(w.start*pg), w.pages*pg)
		if rcs[i].Region != r || rcs[i].Count != w.count {
			t.Fatalf("segment %d = %v, want %v count=%d", i, rcs[i], r, w.count)
		}
	}
	// The verifier's exclusivity predicate.
	if maxRefCount(s, phys.MakeRegion(phys.Addr(8*pg), 8*pg)) != 1 {
		t.Fatal("crypto region should be exclusive")
	}
	if maxRefCount(s, phys.MakeRegion(phys.Addr(16*pg), 16*pg)) != 2 {
		t.Fatal("app range contains a shared window: max refcount must be 2")
	}
}

func TestOwnerMemoryAndGrantsEnumeration(t *testing.T) {
	s := NewSpace()
	root := mustRoot(t, s, 1, mem(0, 8), MemFull)
	if _, err := s.Grant(root, 2, mem(2, 2), MemRW, CleanNone); err != nil {
		t.Fatal(err)
	}
	regs := s.OwnerMemory(1, RightRead)
	want := []phys.Region{
		phys.MakeRegion(0, 2*pg),
		phys.MakeRegion(phys.Addr(4*pg), 4*pg),
	}
	if len(regs) != 2 || regs[0] != want[0] || regs[1] != want[1] {
		t.Fatalf("owner memory = %v, want %v", regs, want)
	}
	grants := s.OwnerMemoryGrants(2)
	if len(grants) != 1 || grants[0].Region != phys.MakeRegion(phys.Addr(2*pg), 2*pg) {
		t.Fatalf("grants = %v", grants)
	}
	if len(s.Owners()) != 2 {
		t.Fatalf("owners = %v", s.Owners())
	}
}

func TestEffectiveRegionsErrors(t *testing.T) {
	s := NewSpace()
	if _, err := s.EffectiveRegions(42); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	core := mustRoot(t, s, 1, CoreResource(0), CoreFull)
	regs, err := s.EffectiveRegions(core)
	if err != nil || regs != nil {
		t.Fatalf("core effective regions = %v, %v", regs, err)
	}
}

// maxRefCount is the highest RefCounts count on any byte of r: the
// conservative value a verifier reads, exclusive exactly when it is 1.
func maxRefCount(s *Space, r phys.Region) int {
	most := 0
	for _, rc := range s.RefCounts() {
		if rc.Region.Overlaps(r) {
			most = max(most, rc.Count)
		}
	}
	return most
}
