package core

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"github.com/tyche-sim/tyche/internal/backend"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
	"github.com/tyche-sim/tyche/internal/trace"
)

// requireFilterMatchesSpace asserts that a domain's per-core hardware
// filters agree with the capability space about addr. The fuzzer's
// isolation invariant samples pages at a stride, which is how the
// grantor-resync bug below hid for several releases.
func requireFilterMatchesSpace(t *testing.T, m *Monitor, id DomainID, addr phys.Addr) {
	t.Helper()
	capOK := m.CheckAccess(id, addr, cap.RightRead)
	for c := phys.CoreID(0); c < phys.CoreID(len(m.Machine().Cores)); c++ {
		ctx, err := m.DomainContext(id, id, c)
		if err != nil {
			t.Fatalf("domain %d context on core %d: %v", id, c, err)
		}
		if hwOK := ctx.Filter.Check(addr, hw.PermR); hwOK != capOK {
			t.Errorf("domain %d at %#x core %d: hardware=%v capability=%v",
				id, addr, c, hwOK, capOK)
		}
	}
}

// TestKillResyncsGrantorFilter: regression for a latent revocation bug
// found by FuzzMonitorAPI (kept as corpus seed-kill-grantor-resync).
// When a domain holding an exclusive Grant dies, Release restores the
// grantor's suspended access in the capability space — but the resync
// pass only rebuilt filters for owners named in the detach's cleanup
// actions, so the grantor's hardware filter permanently lacked the
// granted-back region (hardware=false while capability=true). The fix
// records the surviving parents at detach time (Detached.ParentOwners)
// and resynchronises them too, on the kill, revoke, and parallel-drain
// paths alike.
func TestKillResyncsGrantorFilter(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	base := phys.Addr(666 * pg)

	dom, err := m.CreateDomain(InitialDomain, "grantee")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(InitialDomain, node, dom, cap.MemResource(phys.MakeRegion(base, pg)), cap.MemRW, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := m.KillDomain(InitialDomain, dom); err != nil {
		t.Fatal(err)
	}
	if !m.CheckAccess(InitialDomain, base, cap.RightRead) {
		t.Fatal("grantor did not regain capability access after grantee's death")
	}
	requireFilterMatchesSpace(t, m, InitialDomain, base)
}

// TestRevokeResyncsGrantorFilter: the same property through the revoke
// path — the grantor revokes its own grant and must see the region in
// hardware again immediately.
func TestRevokeResyncsGrantorFilter(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	base := phys.Addr(629 * pg)

	dom, err := m.CreateDomain(InitialDomain, "grantee")
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Grant(InitialDomain, node, dom, cap.MemResource(phys.MakeRegion(base, pg)), cap.MemRW, cap.CleanNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Revoke(InitialDomain, id); err != nil {
		t.Fatal(err)
	}
	if !m.CheckAccess(InitialDomain, base, cap.RightRead) {
		t.Fatal("grantor did not regain capability access after revoking its grant")
	}
	requireFilterMatchesSpace(t, m, InitialDomain, base)
}

// requireDeviceFilterCurrent asserts that the IOMMU context attached for
// dev is what the capability space says it should be right now. The
// revoke, kill and drain paths resynchronise only the devices they can
// have affected; a device wrongly left out would keep a stale context.
func requireDeviceFilterCurrent(t *testing.T, m *Monitor, dev phys.DeviceID, when string) {
	t.Helper()
	want := rebuiltDeviceFilter(t, m, dev)
	got, ok := m.Machine().IOMMU.ContextOf(dev).(*hw.EPT)
	if !ok {
		t.Fatalf("%s: device %v has no extent-table context", when, dev)
	}
	if !reflect.DeepEqual(got.Mappings(), want) {
		t.Errorf("%s: device %v filter is %v, capability state says %v", when, dev, got.Mappings(), want)
	}
}

// rebuiltDeviceFilter is dev's context rebuilt whole from the capability
// space, on an IOMMU of its own: what the installed context must equal.
func rebuiltDeviceFilter(t testing.TB, m *Monitor, dev phys.DeviceID) []hw.EPTMapping {
	t.Helper()
	iu := hw.NewIOMMU(false)
	if err := backend.SyncDeviceRange(iu, m.space, new(backend.Scratch), dev, phys.AllMemory); err != nil {
		t.Fatal(err)
	}
	return iu.ContextOf(dev).(*hw.EPT).Mappings()
}

// TestRevocationNarrowsDeviceFilter: a driver domain hands pages and the
// device on to an I/O domain. Revoking memory from the I/O domain, killing
// a domain it granted a page to, and killing the I/O domain itself must
// each leave the device's filter exactly as the capability space has it.
func TestRevocationNarrowsDeviceFilter(t *testing.T) {
	for _, kind := range []BackendKind{BackendVTX, BackendPMP} {
		t.Run(string(kind), func(t *testing.T) {
			m := bootWorld(t, kind)
			gpu := m.Machine().Device(0)
			dma := func(page uint64) bool { return gpu.DMAWrite(phys.Addr(page*pg), []byte{1}) == nil }
			nodeOf := func(owner DomainID, kind cap.ResourceKind) cap.NodeID {
				t.Helper()
				for _, n := range m.OwnerNodes(owner) {
					if n.Resource.Kind == kind {
						return n.ID
					}
				}
				t.Fatalf("domain %d holds no %v capability", owner, kind)
				return 0
			}
			must := func(id cap.NodeID, err error) cap.NodeID {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				return id
			}

			driver, _ := m.CreateDomain(InitialDomain, "driver")
			must(m.Grant(InitialDomain, nodeOf(InitialDomain, cap.ResMemory), driver, memRes(128, 12), cap.MemRW|cap.RightGrant, cap.CleanZero))
			must(m.Grant(InitialDomain, nodeOf(InitialDomain, cap.ResDevice), driver, cap.DeviceResource(0), cap.RightUse|cap.RightDMA|cap.RightGrant, cap.CleanNone))
			iodom, _ := m.CreateDomain(driver, "io")
			drvMem := nodeOf(driver, cap.ResMemory)
			must(m.Grant(driver, drvMem, iodom, memRes(128, 2), cap.MemRW|cap.RightGrant, cap.CleanZero))
			high := must(m.Grant(driver, drvMem, iodom, memRes(130, 2), cap.MemRW, cap.CleanZero))
			must(m.Grant(driver, nodeOf(driver, cap.ResDevice), iodom, cap.DeviceResource(0), cap.RightUse|cap.RightDMA, cap.CleanNone))
			requireDeviceFilterCurrent(t, m, 0, "after delegation")
			if !dma(128) || !dma(131) || dma(132) || dma(4) {
				t.Fatal("device not confined to the I/O domain's four pages")
			}

			// Revoking memory from the holder narrows the filter.
			if err := m.Revoke(driver, high); err != nil {
				t.Fatal(err)
			}
			requireDeviceFilterCurrent(t, m, 0, "after revoking pages 130-131")
			if !dma(128) || dma(130) {
				t.Fatal("revoked pages still reachable by DMA")
			}

			// The holder grants a page away (exclusive: it leaves the
			// filter) and gets it back when the grantee dies — the holder
			// is only a parent owner of that kill.
			sub, _ := m.CreateDomain(iodom, "sub")
			must(m.Grant(iodom, nodeOf(iodom, cap.ResMemory), sub, memRes(129, 1), cap.MemRW, cap.CleanZero))
			if dma(129) {
				t.Fatal("page granted away by the holder still reachable by DMA")
			}
			if err := m.KillDomain(iodom, sub); err != nil {
				t.Fatal(err)
			}
			requireDeviceFilterCurrent(t, m, 0, "after killing the holder's grantee")
			if !dma(129) {
				t.Fatal("holder regained page 129 but the device did not")
			}

			// Killing the holder detaches it: the device falls back to the
			// driver, and nothing the dead domain held stays reachable
			// through a filter built for it.
			if err := m.KillDomain(driver, iodom); err != nil {
				t.Fatal(err)
			}
			requireDeviceFilterCurrent(t, m, 0, "after killing the I/O domain")
			if !dma(139) || dma(4) {
				t.Fatal("device filter does not follow the driver's memory after the I/O domain's death")
			}

			// dom0 drops the device's root capability: every holder goes
			// with it, so no affected owner holds the device any more and
			// only the revoked device capability itself names the filter
			// to empty.
			if err := m.Revoke(InitialDomain, nodeOf(InitialDomain, cap.ResDevice)); err != nil {
				t.Fatal(err)
			}
			requireDeviceFilterCurrent(t, m, 0, "after revoking the device's root capability")
			if dma(139) {
				t.Fatal("device with no holder left can still DMA")
			}
		})
	}
}

// TestResyncNeverPublishesPartialFilter: dom0, running on core 0, shares
// a page with a child and revokes it again, over and over; every round
// rebuilds dom0's filter twice. Page 4 is dom0's throughout, so the
// filter installed on the core running dom0 must let it fetch from page
// 4 after every rebuild, and each rebuild must install its filter in one
// step (one generation bump), never clear it and write it back segment
// by segment.
func TestResyncNeverPublishesPartialFilter(t *testing.T) {
	for _, kind := range []BackendKind{BackendVTX, BackendPMP} {
		t.Run(string(kind), func(t *testing.T) {
			m := bootWorld(t, kind)
			node := dom0MemNode(t, m)
			child, err := m.CreateDomain(InitialDomain, "child")
			if err != nil {
				t.Fatal(err)
			}
			// The PMP backend reprograms only the units of cores that are
			// running the domain.
			idle := phys.Addr(4 * pg)
			if err := m.SetEntry(InitialDomain, InitialDomain, idle); err != nil {
				t.Fatal(err)
			}
			if err := m.Launch(InitialDomain, 0); err != nil {
				t.Fatal(err)
			}
			ctx, err := m.DomainContext(InitialDomain, InitialDomain, 0)
			if err != nil {
				t.Fatal(err)
			}
			check := func(i int, what string) {
				t.Helper()
				if p := ctx.Filter.Lookup(idle); !p.Allows(hw.PermX) {
					t.Fatalf("round %d: after the %s dom0's filter shows %v at %v", i, what, p, idle)
				}
			}
			const rounds = 400
			for i := 0; i < rounds; i++ {
				id, err := m.Share(InitialDomain, node, child, memRes(200, 1), cap.MemRW, cap.CleanNone)
				if err != nil {
					t.Fatal(err)
				}
				check(i, "share")
				if err := m.Revoke(InitialDomain, id); err != nil {
					t.Fatal(err)
				}
				check(i, "revoke")
			}
		})
	}
}

// deviceSyncRecorder is a backend that notes which devices the monitor
// resynchronises, in order.
type deviceSyncRecorder struct {
	backend.Backend
	devs []phys.DeviceID
}

func (r *deviceSyncRecorder) SyncDeviceRange(dev phys.DeviceID, scope phys.Region) error {
	r.devs = append(r.devs, dev)
	return r.Backend.SyncDeviceRange(dev, scope)
}

// TestDeviceResyncMatchesHolderSweep pins which IOMMU contexts each
// operation reprograms, and in which order, for a machine with two
// devices whose DMA holders overlap: a holds both, b only the second, c
// none, and dom0 has granted both away. The monitor asks each affected
// owner which devices it holds; the golden sequences are what sweeping
// every device's holder set gives, and the sweep itself is re-run next
// to each as the reference. A share, and the revocation of a share,
// changes only its grantee's or holder's access — never the sharer's —
// so only the devices that owner holds are rebuilt. After every step
// each device's installed context must equal a fresh build from the
// capability space: a device left out must not have needed the rebuild.
func TestDeviceResyncMatchesHolderSweep(t *testing.T) {
	mach, err := hw.NewMachine(hw.Config{
		MemBytes: 8 << 20, NumCores: 2, IOMMUAllowByDefault: true,
		Devices: []hw.DeviceConfig{{Name: "gpu0", Class: hw.DevAccelerator}, {Name: "nic0", Class: hw.DevNIC}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rot, err := tpm.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Boot(BootConfig{Machine: mach, TPM: rot})
	if err != nil {
		t.Fatal(err)
	}
	rec := &deviceSyncRecorder{Backend: m.bk}
	m.bk = rec
	must := func(id cap.NodeID, err error) cap.NodeID {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	var devNode [2]cap.NodeID
	for _, n := range m.OwnerNodes(InitialDomain) {
		if n.Resource.Kind == cap.ResDevice {
			devNode[n.Resource.Device] = n.ID
		}
	}
	memNode := dom0MemNode(t, m)
	a, _ := m.CreateDomain(InitialDomain, "a")
	b, _ := m.CreateDomain(InitialDomain, "b")
	c, _ := m.CreateDomain(InitialDomain, "c")
	const share = cap.MemRW | cap.RightShare
	aMem := must(m.Grant(InitialDomain, memNode, a, memRes(128, 4), share|cap.RightGrant, cap.CleanZero))
	bMem := must(m.Grant(InitialDomain, memNode, b, memRes(136, 4), share, cap.CleanZero))
	must(m.Grant(InitialDomain, devNode[0], a, cap.DeviceResource(0), cap.RightUse|cap.RightDMA, cap.CleanNone))
	bNic := must(m.Grant(InitialDomain, devNode[1], b, cap.DeviceResource(1), cap.DeviceFull, cap.CleanNone))
	aNic := must(m.Share(b, bNic, a, cap.DeviceResource(1), cap.RightUse|cap.RightDMA, cap.CleanNone))

	// sweep is the question as it used to be put: for each device, are
	// its holders among the affected owners?
	sweep := func(devs []phys.DeviceID, owners ...DomainID) []phys.DeviceID {
		var out []phys.DeviceID
		for _, dev := range mach.DeviceIDs() {
			if slices.Contains(devs, dev) || slices.ContainsFunc(m.space.AppendDeviceDMAHolders(nil, dev), func(h cap.OwnerID) bool {
				return slices.Contains(owners, DomainID(h))
			}) {
				out = append(out, dev)
			}
		}
		return out
	}
	var aToC, bToC cap.NodeID
	for _, step := range []struct {
		name   string
		do     func() error
		devs   []phys.DeviceID // device capabilities the step revokes
		owners []DomainID      // owners whose access it changes
		want   []phys.DeviceID
	}{
		{"a shares a page with c", func() (err error) {
			aToC, err = m.Share(a, aMem, c, memRes(128, 1), cap.MemRW, cap.CleanZero)
			return
		}, nil, []DomainID{c}, nil},
		{"b shares a page with c", func() (err error) {
			bToC, err = m.Share(b, bMem, c, memRes(136, 1), cap.MemRW, cap.CleanZero)
			return
		}, nil, []DomainID{c}, nil},
		{"dom0, which granted both devices away, shares a page with c", func() error {
			_, err := m.Share(InitialDomain, memNode, c, memRes(200, 1), cap.MemRW, cap.CleanZero)
			return err
		}, nil, []DomainID{c}, nil},
		{"a grants c a page", func() error {
			_, err := m.Grant(a, aMem, c, memRes(130, 1), cap.MemRW, cap.CleanZero)
			return err
		}, nil, []DomainID{a, c}, []phys.DeviceID{0, 1}},
		{"b revokes its page from c", func() error { return m.Revoke(b, bToC) },
			nil, []DomainID{c}, nil},
		{"a revokes its page from c", func() error { return m.Revoke(a, aToC) },
			nil, []DomainID{c}, nil},
		{"b revokes a's share of the second device", func() error { return m.Revoke(b, aNic) },
			[]phys.DeviceID{1}, []DomainID{a}, []phys.DeviceID{0, 1}},
		{"c, holding no device, is killed: a regains its granted page", func() error { return m.KillDomain(InitialDomain, c) },
			nil, []DomainID{c, a}, []phys.DeviceID{0}},
	} {
		rec.devs = nil
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if !slices.Equal(rec.devs, step.want) {
			t.Errorf("%s: resynchronised devices %v, want %v", step.name, rec.devs, step.want)
		}
		if ref := sweep(step.devs, step.owners...); !slices.Equal(rec.devs, ref) {
			t.Errorf("%s: resynchronised devices %v, the holder sweep says %v", step.name, rec.devs, ref)
		}
		for _, dev := range mach.DeviceIDs() {
			if got, want := mach.IOMMU.ContextOf(dev).(*hw.EPT).Mappings(), rebuiltDeviceFilter(t, m, dev); !slices.Equal(got, want) {
				t.Errorf("%s: %v's installed context %v, a fresh build %v", step.name, dev, got, want)
			}
		}
	}
}

// TestFailedRebuildDoesNotStrandLaterOwners: a revocation resynchronises
// every affected owner even when one rebuild fails. dom0 shares a
// 40-page bridge to d1, d1 forwards one page of it to d3, and dom0 also
// shares d1 sixteen isolated single pages inside the bridge — one
// merged segment while the bridge exists, sixteen once it is revoked,
// one more than the PMP budget. Revoking the bridge therefore fails
// d1's rebuild; resyncAfterRevocation used to return there, before
// reaching d3, whose installed layout kept the forwarded page the
// capability space no longer gives it. (d1 itself stays on its last
// layout that fit: validate-then-commit is ROADMAP item 1.)
func TestFailedRebuildDoesNotStrandLaterOwners(t *testing.T) {
	m := bootWorld(t, BackendPMP)
	node := dom0MemNode(t, m)
	d1, err := m.CreateDomain(InitialDomain, "d1")
	if err != nil {
		t.Fatal(err)
	}
	d3, err := m.CreateDomain(InitialDomain, "d3")
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := m.Share(InitialDomain, node, d1, memRes(100, 40), cap.MemRW|cap.RightShare, cap.CleanNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Share(d1, bridge, d3, memRes(101, 1), cap.MemRW, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	for p := uint64(100); p <= 130; p += 2 {
		if _, err := m.Share(InitialDomain, node, d1, memRes(p, 1), cap.MemRW, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
	}
	var exhausted *backend.PMPExhaustedError
	if err := m.Revoke(InitialDomain, bridge); !errors.As(err, &exhausted) || exhausted.Owner != cap.OwnerID(d1) {
		t.Fatalf("revoking the bridge: %v, want d1's layout over the PMP budget", err)
	}
	forwarded := phys.Addr(101 * pg)
	if m.CheckAccess(d3, forwarded, cap.RightRead) {
		t.Fatal("d3 keeps capability access to the revoked page")
	}
	core := m.Machine().Cores[1]
	if err := m.bk.Transition(core, cap.OwnerID(d3), false); err != nil {
		t.Fatal(err)
	}
	if core.PMPUnit.Check(forwarded, hw.PermR) {
		t.Fatal("d3's programmed PMP file still maps the page its revoked capability covered")
	}
}

// TestFailedGrantDoesNotStrandDeviceFilter: a delegation resynchronises
// every affected filter even when one rebuild fails. dom0 holds gpu0
// with DMA rights and grants a child alternating single pages until its
// own layout goes over the PMP budget. The refused grant still moved
// the page in the tree, to the child alone, but dom0's rebuild failed
// first and the delegation used to return there — before gpu0, whose
// filter is dom0's memory, so the device kept DMA access to a page the
// child holds exclusively. (dom0 itself stays on its last layout that
// fit: validate-then-commit is ROADMAP item 1.)
func TestFailedGrantDoesNotStrandDeviceFilter(t *testing.T) {
	m := bootWorld(t, BackendPMP)
	node := dom0MemNode(t, m)
	child, err := m.CreateDomain(InitialDomain, "child")
	if err != nil {
		t.Fatal(err)
	}
	var exhausted *backend.PMPExhaustedError
	page := uint64(200)
	for ; ; page += 2 {
		_, err := m.Grant(InitialDomain, node, child, memRes(page, 1), cap.MemRW, cap.CleanNone)
		if errors.As(err, &exhausted) {
			break
		}
		if err != nil || page > 300 {
			t.Fatalf("grant of page %d: %v, want dom0's layout over the PMP budget", page, err)
		}
	}
	if exhausted.Owner != cap.OwnerID(InitialDomain) {
		t.Fatalf("the refused grant names owner %d's layout, want dom0's", exhausted.Owner)
	}
	addr := phys.Addr(page * pg)
	if !m.CheckAccess(child, addr, cap.RightRead) || m.CheckAccess(InitialDomain, addr, cap.RightRead) {
		t.Fatal("the refused grant did not leave the page with the child alone")
	}
	requireDeviceFilterCurrent(t, m, 0, "after the refused grant")
	if err := m.Machine().Device(0).DMARead(addr, make([]byte, 1)); err == nil {
		t.Fatalf("gpu0 can DMA-read page %d, which the child holds exclusively", page)
	}
}

// TestKillCompletesPastFailedSurvivorRebuild: a kill runs to its end
// even when a survivor's rebuild fails. The layout is the one above
// with the bridge routed through a victim: dom0 shares the 40-page
// bridge to the victim, the victim forwards it to d1, and dom0 shares
// d1 the sixteen isolated pages directly. Killing the victim takes the
// bridge with it and d1's rebuild goes one entry over the PMP budget;
// destroyReclaim used to return there — the victim's backend state,
// key and schedule entries left in place, no KKill, and a second kill
// refused because the domain was already dead.
func TestKillCompletesPastFailedSurvivorRebuild(t *testing.T) {
	for _, tc := range []struct {
		name string
		kill func(m *Monitor, victim DomainID) error
	}{
		{"KillDomain", func(m *Monitor, v DomainID) error { return m.KillDomain(InitialDomain, v) }},
		{"ForceKill", (*Monitor).ForceKill},
		{"DepartKill", (*Monitor).DepartKill},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mach, err := hw.NewMachine(hw.Config{
				MemBytes: 8 << 20, NumCores: 2, PMPEntries: 16,
				IOMMUAllowByDefault: true, MemoryEncryption: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			rot, err := tpm.New(nil)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Boot(BootConfig{Machine: mach, TPM: rot, Backend: BackendPMP})
			if err != nil {
				t.Fatal(err)
			}
			ck, tr := attachDualCheckers(t, m)
			node := dom0MemNode(t, m)
			victim, err := m.CreateDomain(InitialDomain, "victim")
			if err != nil {
				t.Fatal(err)
			}
			d1, err := m.CreateDomain(InitialDomain, "d1")
			if err != nil {
				t.Fatal(err)
			}
			bridge, err := m.Share(InitialDomain, node, victim, memRes(100, 40), cap.MemRW|cap.RightShare, cap.CleanNone)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Share(victim, bridge, d1, memRes(100, 40), cap.MemRW, cap.CleanNone); err != nil {
				t.Fatal(err)
			}
			for p := uint64(100); p <= 130; p += 2 {
				if _, err := m.Share(InitialDomain, node, d1, memRes(p, 1), cap.MemRW, cap.CleanNone); err != nil {
					t.Fatal(err)
				}
			}
			// An exclusive page keys the victim's memory: the key the kill
			// must erase.
			if _, err := m.Grant(InitialDomain, node, victim, memRes(200, 1), cap.MemRW, cap.CleanNone); err != nil {
				t.Fatal(err)
			}
			if _, ok := m.DomainKeyID(victim); !ok {
				t.Fatal("the victim has no memory key to erase")
			}
			var exhausted *backend.PMPExhaustedError
			if err := tc.kill(m, victim); !errors.As(err, &exhausted) || exhausted.Owner != cap.OwnerID(d1) {
				t.Fatalf("killing the victim: %v, want d1's layout over the PMP budget", err)
			}
			killed := slices.ContainsFunc(m.Machine().Tracer().Events(), func(ev trace.Event) bool {
				return ev.Kind == trace.KKill && ev.Domain == uint64(victim)
			})
			if !killed {
				t.Error("no KKill closes the victim's destruction")
			}
			if _, err := m.bk.Context(cap.OwnerID(victim), 0); !errors.Is(err, backend.ErrUnknownDomain) {
				t.Errorf("the backend still answers for the victim: %v", err)
			}
			if _, ok := m.DomainKeyID(victim); ok {
				t.Error("the victim's memory key survived the kill")
			}
			if limbo := m.space.LimboNodes(); limbo != 0 {
				t.Errorf("%d capability records left in limbo", limbo)
			}
			if err := assertCheckersAgree(t, ck, tr); err != nil {
				t.Errorf("the completed kill is flagged: %v", err)
			}
		})
	}
}

// TestKillCompletesPastFailedCleanup: a kill whose subtree's cleanups
// fail still runs to its end, exactly as a revocation's retire does.
// The victim holds a zero-on-revoke grant and the backend refuses every
// cleanup. The kill used to return at the refusal — no KKill, the
// victim's backend state, key and schedule entries left in place, and a
// second kill refused because the domain was already dead. Now it
// returns the refusal after finishing; the failing subtree stays
// unreleased, so dom0's grant stays suspended (fail closed).
func TestKillCompletesPastFailedCleanup(t *testing.T) {
	for _, tc := range []struct {
		name string
		kill func(m *Monitor, victim DomainID) error
	}{
		{"KillDomain", func(m *Monitor, v DomainID) error { return m.KillDomain(InitialDomain, v) }},
		{"ForceKill", (*Monitor).ForceKill},
		{"DepartKill", (*Monitor).DepartKill},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mach, err := hw.NewMachine(hw.Config{
				MemBytes: 8 << 20, NumCores: 2,
				IOMMUAllowByDefault: true, MemoryEncryption: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			rot, err := tpm.New(nil)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Boot(BootConfig{Machine: mach, TPM: rot})
			if err != nil {
				t.Fatal(err)
			}
			ck, tr := attachDualCheckers(t, m)
			victim, err := m.CreateDomain(InitialDomain, "victim")
			if err != nil {
				t.Fatal(err)
			}
			granted := phys.Addr(200 * pg)
			if _, err := m.Grant(InitialDomain, dom0MemNode(t, m), victim, memRes(200, 1), cap.MemRW, cap.CleanZero); err != nil {
				t.Fatal(err)
			}
			if _, ok := m.DomainKeyID(victim); !ok {
				t.Fatal("the victim has no memory key to erase")
			}
			boom := errors.New("cleanup refused")
			m.bk = &failingBackend{Backend: m.bk, cleanups: boom}
			if err := tc.kill(m, victim); !errors.Is(err, boom) {
				t.Fatalf("killing the victim: %v, want the cleanup refusal", err)
			}
			killed := slices.ContainsFunc(m.Machine().Tracer().Events(), func(ev trace.Event) bool {
				return ev.Kind == trace.KKill && ev.Domain == uint64(victim)
			})
			if !killed {
				t.Error("no KKill closes the victim's destruction")
			}
			if _, err := m.bk.Context(cap.OwnerID(victim), 0); !errors.Is(err, backend.ErrUnknownDomain) {
				t.Errorf("the backend still answers for the victim: %v", err)
			}
			if _, ok := m.DomainKeyID(victim); ok {
				t.Error("the victim's memory key survived the kill")
			}
			if m.CheckAccess(InitialDomain, granted, cap.RightRead) {
				t.Error("dom0 regained a page whose cleanup never ran")
			}
			if err := assertCheckersAgree(t, ck, tr); err != nil {
				t.Errorf("the completed kill is flagged: %v", err)
			}
		})
	}
}

// TestShareCostIndependentOfHolding: a resync pays for the pages its
// rebuild changed, not for what the domain holds. A one-page Share costs
// EPTUpdatePage once — the grantee's new page; the sharer's view does not
// change and costs 0 — whether the grantee already holds 1 page or 256.
func TestShareCostIndependentOfHolding(t *testing.T) {
	shareCost := func(held uint64) uint64 {
		m, _ := bootTracedWorld(t, BackendVTX)
		node := dom0MemNode(t, m)
		child, err := m.CreateDomain(InitialDomain, "child")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Share(InitialDomain, node, child, memRes(400, held), cap.MemRW, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		tr := m.Machine().Tracer()
		seq0, c0 := len(tr.Events()), m.Machine().Clock.Cycles()
		if _, err := m.Share(InitialDomain, node, child, memRes(300, 1), cap.MemRW, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		var maps []trace.Event
		for _, ev := range tr.Events()[seq0:] {
			if ev.Kind == trace.KEPTMap {
				ev.Seq, ev.Cycle = 0, 0
				maps = append(maps, ev)
			}
		}
		want := trace.Event{Core: trace.GlobalCore, Kind: trace.KEPTMap, Domain: uint64(child), Node: uint64(hw.PermRW), Addr: 300 * pg, Size: pg}
		if len(maps) != 1 || maps[0] != want {
			t.Errorf("holding %d pages: ept-map events %v, want one for the new page %v", held, maps, want)
		}
		return m.Machine().Clock.Cycles() - c0
	}
	want := hw.DefaultCostModel().EPTUpdatePage
	for _, held := range []uint64{1, 256} {
		if got := shareCost(held); got != want {
			t.Errorf("a one-page Share into a domain holding %d pages costs %d cycles, want %d", held, got, want)
		}
	}
}

// TestUnchangedResyncIsFree: rebuilding a view that did not change
// charges nothing and emits nothing.
func TestUnchangedResyncIsFree(t *testing.T) {
	m, _ := bootTracedWorld(t, BackendVTX)
	tr := m.Machine().Tracer()
	seq0, c0 := len(tr.Events()), m.Machine().Clock.Cycles()
	if err := m.bk.SyncDomainRange(cap.OwnerID(InitialDomain), phys.AllMemory); err != nil {
		t.Fatal(err)
	}
	if c := m.Machine().Clock.Cycles() - c0; c != 0 {
		t.Errorf("a resync of an unchanged view charged %d cycles", c)
	}
	if evs := tr.Events()[seq0:]; len(evs) != 0 {
		t.Errorf("a resync of an unchanged view emitted %v", evs)
	}
}

// syncRecorder is a backend that notes every domain rebuild the monitor
// asks for, with its scope, in order.
type syncRecorder struct {
	backend.Backend
	owners []DomainID
	scopes []phys.Region
}

func (r *syncRecorder) SyncDomainRange(o cap.OwnerID, scope phys.Region) error {
	r.owners = append(r.owners, DomainID(o))
	r.scopes = append(r.scopes, scope)
	return r.Backend.SyncDomainRange(o, scope)
}

// TestResyncTouchesOnlyChangedOwners pins which domains each capability
// operation rebuilds, and over which range: a share its grantee, a
// grant its grantor and grantee, each over the delegated range; the
// revocation of a share only the owners of what it detached, of a
// grant those and the grantor, each over the span of the detached
// memory; a core delegation its grantee over no memory at all. After
// every step every installed filter must equal the page-by-page model
// of the capability space (checkFiltersExact) — on pmp, whose filter is
// a core's register file, with that core programmed for each domain in
// turn — so a domain left out, or a range left out, must not have
// needed the rebuild.
func TestResyncTouchesOnlyChangedOwners(t *testing.T) {
	for _, kind := range []BackendKind{BackendVTX, BackendPMP} {
		t.Run(string(kind), func(t *testing.T) {
			m := bootWorld(t, kind)
			rec := &syncRecorder{Backend: m.bk}
			m.bk = rec
			node := dom0MemNode(t, m)
			a, err := m.CreateDomain(InitialDomain, "a")
			if err != nil {
				t.Fatal(err)
			}
			b, err := m.CreateDomain(InitialDomain, "b")
			if err != nil {
				t.Fatal(err)
			}
			doms := []DomainID{InitialDomain, a, b}
			checkExact := func(step string) {
				t.Helper()
				if kind == BackendVTX {
					checkFiltersExact(t, m, doms)
					return
				}
				for _, id := range doms {
					if d, _ := m.Domain(id); d.State() == StateDead {
						continue
					}
					if err := m.bk.Transition(m.Machine().Cores[0], cap.OwnerID(id), false); err != nil {
						t.Fatalf("%s: programming core 0 for domain %d: %v", step, id, err)
					}
					checkFiltersExact(t, m, []DomainID{id})
				}
			}
			const deleg = cap.MemRW | cap.RightShare | cap.RightGrant
			var aShare, aGrant, bShare, bGrant, nested cap.NodeID
			coreNode, ok := m.space.OwnerCoreNode(cap.OwnerID(InitialDomain), 1)
			if !ok {
				t.Fatal("dom0 holds no capability for core 1")
			}
			for _, step := range []struct {
				name   string
				do     func() error
				owners []DomainID
				scope  phys.Region
			}{
				{"dom0 shares a page with a", func() (err error) {
					aShare, err = m.Share(InitialDomain, node, a, memRes(300, 4), deleg, cap.CleanNone)
					return
				}, []DomainID{a}, memRes(300, 4).Mem},
				{"dom0 grants a pages", func() (err error) {
					aGrant, err = m.Grant(InitialDomain, node, a, memRes(310, 4), deleg, cap.CleanZero)
					return
				}, []DomainID{InitialDomain, a}, memRes(310, 4).Mem},
				{"a shares part of its shared page on to b", func() (err error) {
					bShare, err = m.Share(a, aShare, b, memRes(301, 2), cap.MemRW, cap.CleanNone)
					return
				}, []DomainID{b}, memRes(301, 2).Mem},
				{"a grants b a page of its grant", func() (err error) {
					bGrant, err = m.Grant(a, aGrant, b, memRes(311, 1), cap.MemRW|cap.RightShare, cap.CleanZero)
					return
				}, []DomainID{a, b}, memRes(311, 1).Mem},
				{"b shares the granted page back to dom0", func() (err error) {
					nested, err = m.Share(b, bGrant, InitialDomain, memRes(311, 1), cap.RightRead, cap.CleanNone)
					return
				}, []DomainID{InitialDomain}, memRes(311, 1).Mem},
				{"dom0 shares a core with a", func() error {
					_, err := m.Share(InitialDomain, coreNode, a, cap.CoreResource(1), cap.RightRun, cap.CleanNone)
					return err
				}, []DomainID{a}, phys.Region{}},
				{"a revokes its share to b", func() error { return m.Revoke(a, bShare) },
					[]DomainID{b}, memRes(301, 2).Mem},
				{"dom0 drops the page b shared it", func() error { return m.Revoke(InitialDomain, nested) },
					[]DomainID{InitialDomain}, memRes(311, 1).Mem},
				{"b shares the granted page back to dom0 again", func() (err error) {
					nested, err = m.Share(b, bGrant, InitialDomain, memRes(311, 1), cap.RightRead, cap.CleanNone)
					return
				}, []DomainID{InitialDomain}, memRes(311, 1).Mem},
				{"dom0 revokes its grant to a, with a's grant to b and b's share under it", func() error { return m.Revoke(InitialDomain, aGrant) },
					[]DomainID{InitialDomain, a, b}, memRes(310, 4).Mem},
				{"a drops its share from dom0", func() error { return m.Revoke(a, aShare) },
					[]DomainID{a}, memRes(300, 4).Mem},
				{"dom0 grants b a page", func() error {
					_, err := m.Grant(InitialDomain, node, b, memRes(320, 1), cap.MemRW, cap.CleanZero)
					return err
				}, []DomainID{InitialDomain, b}, memRes(320, 1).Mem},
				{"b is killed: dom0 regains the page", func() error { return m.KillDomain(InitialDomain, b) },
					[]DomainID{InitialDomain}, memRes(320, 1).Mem},
			} {
				rec.owners, rec.scopes = nil, nil
				if err := step.do(); err != nil {
					t.Fatalf("%s: %v", step.name, err)
				}
				if !slices.Equal(rec.owners, step.owners) {
					t.Errorf("%s: rebuilt domains %v, want %v", step.name, rec.owners, step.owners)
				}
				for i, scope := range rec.scopes {
					if scope != step.scope {
						t.Errorf("%s: rebuilt domain %d over %v, want %v", step.name, rec.owners[i], scope, step.scope)
					}
				}
				checkExact(step.name)
			}
		})
	}
}

// TestDeviceFilterMatchesRebuildEveryStep: a device resync splices only
// the range that moved into the installed filter, so after every step
// of a share/grant/revoke/kill sequence on the device's DMA holder the
// installed filter must equal one rebuilt whole from the capability
// space, on both backends.
func TestDeviceFilterMatchesRebuildEveryStep(t *testing.T) {
	for _, kind := range []BackendKind{BackendVTX, BackendPMP} {
		t.Run(string(kind), func(t *testing.T) {
			m := bootWorld(t, kind)
			var devNode cap.NodeID
			for _, n := range m.OwnerNodes(InitialDomain) {
				if n.Resource.Kind == cap.ResDevice {
					devNode = n.ID
				}
			}
			node := dom0MemNode(t, m)
			holder, _ := m.CreateDomain(InitialDomain, "holder")
			peer, _ := m.CreateDomain(InitialDomain, "peer")
			var slab, page, grant, peerShare cap.NodeID
			for _, step := range []struct {
				name string
				do   func() error
			}{
				{"grant the device to the holder", func() (err error) {
					_, err = m.Grant(InitialDomain, devNode, holder, cap.DeviceResource(0), cap.RightUse|cap.RightDMA, cap.CleanNone)
					return err
				}},
				{"share the holder a slab", func() (err error) {
					slab, err = m.Share(InitialDomain, node, holder, memRes(300, 8), cap.MemRW|cap.RightShare|cap.RightGrant, cap.CleanNone)
					return err
				}},
				{"share the holder one page", func() (err error) {
					page, err = m.Share(InitialDomain, node, holder, memRes(400, 1), cap.MemRW, cap.CleanNone)
					return err
				}},
				{"the holder grants part of its slab away", func() (err error) {
					grant, err = m.Grant(holder, slab, peer, memRes(302, 2), cap.MemRW, cap.CleanZero)
					return err
				}},
				{"the holder shares the peer a page", func() (err error) {
					peerShare, err = m.Share(holder, slab, peer, memRes(306, 1), cap.MemRW, cap.CleanNone)
					return err
				}},
				{"revoke the one page", func() error { return m.Revoke(InitialDomain, page) }},
				{"revoke the grant: the holder regains it", func() error { return m.Revoke(holder, grant) }},
				{"revoke the peer's share", func() error { return m.Revoke(holder, peerShare) }},
				{"kill the peer", func() error { return m.KillDomain(InitialDomain, peer) }},
				{"kill the holder", func() error { return m.KillDomain(InitialDomain, holder) }},
			} {
				if err := step.do(); err != nil {
					t.Fatalf("%s: %v", step.name, err)
				}
				requireDeviceFilterCurrent(t, m, 0, step.name)
			}
		})
	}
}
