package backend_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/tyche-sim/tyche/internal/backend"
	pmpbk "github.com/tyche-sim/tyche/internal/backend/pmp"
	"github.com/tyche-sim/tyche/internal/backend/vtx"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

const pg = phys.PageSize

func mem(start, pages uint64) cap.Resource {
	return cap.MemResource(phys.MakeRegion(phys.Addr(start*pg), pages*pg))
}

func newWorld(t testing.TB, pmpEntries int) (*hw.Machine, *cap.Space) {
	t.Helper()
	m, err := hw.NewMachine(hw.Config{
		MemBytes: 4 << 20, NumCores: 2, PMPEntries: pmpEntries,
		Devices: []hw.DeviceConfig{{Name: "gpu0", Class: hw.DevAccelerator}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, cap.NewSpace()
}

func TestRightsToPerm(t *testing.T) {
	cases := []struct {
		r    cap.Rights
		want hw.Perm
	}{
		{cap.RightRead, hw.PermR},
		{cap.MemRW, hw.PermRW},
		{cap.MemRWX, hw.PermRWX},
		{cap.MemRWX | cap.RightShare, hw.PermRWX},
		{cap.RightRun, hw.PermNone},
		{cap.RightsNone, hw.PermNone},
	}
	for _, tc := range cases {
		if got := backend.RightsToPerm(tc.r); got != tc.want {
			t.Errorf("RightsToPerm(%v) = %v, want %v", tc.r, got, tc.want)
		}
	}
}

func TestFlattenGrants(t *testing.T) {
	grants := []cap.MemoryGrant{
		{Region: phys.MakeRegion(0, 4*pg), Rights: cap.RightRead, Node: 1},
		{Region: phys.MakeRegion(2*pg, 4*pg), Rights: cap.RightWrite, Node: 2},
		{Region: phys.MakeRegion(8*pg, 2*pg), Rights: cap.MemRWX, Node: 3},
		{Region: phys.MakeRegion(10*pg, 2*pg), Rights: cap.MemRWX, Node: 4}, // adjacent same perm: merge
	}
	segs := backend.FlattenGrants(grants)
	want := []backend.Segment{
		{Region: phys.MakeRegion(0, 2*pg), Perm: hw.PermR},
		{Region: phys.MakeRegion(2*pg, 2*pg), Perm: hw.PermRW},
		{Region: phys.MakeRegion(4*pg, 2*pg), Perm: hw.PermW},
		{Region: phys.MakeRegion(8*pg, 4*pg), Perm: hw.PermRWX},
	}
	if len(segs) != len(want) {
		t.Fatalf("segs = %v, want %v", segs, want)
	}
	for i := range segs {
		if segs[i] != want[i] {
			t.Fatalf("seg %d = %v, want %v", i, segs[i], want[i])
		}
	}
	if backend.FlattenGrants(nil) != nil {
		t.Fatal("empty input should flatten to nil")
	}
	// Rights with no hardware permission contribute nothing.
	none := backend.FlattenGrants([]cap.MemoryGrant{{Region: phys.MakeRegion(0, pg), Rights: cap.RightShare}})
	if none != nil {
		t.Fatalf("share-only grant should flatten to nil, got %v", none)
	}
}

func TestVTXInstallAndSync(t *testing.T) {
	m, s := newWorld(t, 0)
	bk := vtx.New(m, s)
	root, err := s.CreateRoot(1, mem(0, 64), cap.MemFull, cap.CleanNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := bk.InstallDomain(1); err != nil {
		t.Fatal(err)
	}
	if err := bk.InstallDomain(1); err == nil {
		t.Fatal("double install must fail")
	}
	ctx, err := bk.Context(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ctx.Filter.Check(0, hw.PermR) || !ctx.Filter.Check(phys.Addr(63*pg), hw.PermX) {
		t.Fatal("installed EPT should reflect root capability")
	}
	// Grant away pages 0-3 to domain 2, sync, and verify the EPT shrank.
	if _, err := s.Grant(root, 2, mem(0, 4), cap.MemRW, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := bk.InstallDomain(2); err != nil {
		t.Fatal(err)
	}
	if err := bk.SyncDomain(1); err != nil {
		t.Fatal(err)
	}
	if ctx.Filter.Check(0, hw.PermR) {
		t.Fatal("granted-away page still mapped in granter EPT")
	}
	ctx2, err := bk.Context(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ctx2.Filter.Check(0, hw.PermW) {
		t.Fatal("grantee EPT missing granted page")
	}
	if ctx2.Filter.Check(0, hw.PermX) {
		t.Fatal("grantee EPT must honour attenuated rights")
	}
	if ctx.ASID == ctx2.ASID {
		t.Fatal("domains must get distinct ASIDs")
	}
	if err := bk.SyncDomain(9); !errors.Is(err, backend.ErrUnknownDomain) {
		t.Fatalf("sync unknown: %v", err)
	}
}

func TestVTXTransitions(t *testing.T) {
	m, s := newWorld(t, 0)
	bk := vtx.New(m, s)
	if _, err := s.CreateRoot(1, mem(0, 16), cap.MemFull, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateRoot(2, mem(16, 16), cap.MemFull, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	for _, d := range []cap.OwnerID{1, 2} {
		if err := bk.InstallDomain(d); err != nil {
			t.Fatal(err)
		}
	}
	core := m.Cores[0]
	before := m.Clock.Cycles()
	if err := bk.Transition(core, 1, false); err != nil {
		t.Fatal(err)
	}
	slow := m.Clock.Cycles() - before
	if slow < m.Cost.VMExit {
		t.Fatalf("slow transition charged %d cycles", slow)
	}
	if core.Context().Owner != 1 {
		t.Fatal("context not installed")
	}
	// Fast path requires registration.
	if err := bk.Transition(core, 2, true); !errors.Is(err, backend.ErrNoFastPath) {
		t.Fatalf("unregistered fast transition: %v", err)
	}
	if err := bk.RegisterFastPair(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	before = m.Clock.Cycles()
	if err := bk.Transition(core, 2, true); err != nil {
		t.Fatal(err)
	}
	fast := m.Clock.Cycles() - before
	if fast != m.Cost.VMFunc {
		t.Fatalf("fast transition charged %d, want %d", fast, m.Cost.VMFunc)
	}
	if fast*5 >= slow {
		t.Fatalf("fast (%d) should be ≪ slow (%d)", fast, slow)
	}
	if core.Context().Owner != 2 {
		t.Fatal("fast switch did not change context")
	}
	// Registration is symmetric.
	if err := bk.Transition(core, 1, true); err != nil {
		t.Fatalf("reverse fast transition: %v", err)
	}
	// Removing a domain drops its fast pairs.
	if err := bk.RemoveDomain(2); err != nil {
		t.Fatal(err)
	}
	if err := bk.Transition(core, 2, true); err == nil {
		t.Fatal("transition to removed domain must fail")
	}
	if err := bk.RegisterFastPair(0, 1, 2); !errors.Is(err, backend.ErrUnknownDomain) {
		t.Fatalf("register with removed domain: %v", err)
	}
}

func TestVTXFastSwitchKeepsTLB(t *testing.T) {
	m, s := newWorld(t, 0)
	bk := vtx.New(m, s)
	for _, d := range []cap.OwnerID{1, 2} {
		if _, err := s.CreateRoot(d, mem(uint64(d-1)*16, 16), cap.MemFull, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		if err := bk.InstallDomain(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := bk.RegisterFastPair(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	core := m.Cores[0]
	if err := bk.Transition(core, 1, false); err != nil {
		t.Fatal(err)
	}
	// Warm the TLB via an interpreted load.
	a := hw.NewAsm()
	a.Movi(1, uint32(0)).Ld(2, 1, 0).Hlt()
	code := a.MustAssemble(8 * pg)
	if err := m.Mem.WriteAt(8*pg, code); err != nil {
		t.Fatal(err)
	}
	core.PC = 8 * pg
	if _, trap := core.Run(10); trap.Kind != hw.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	warm := len(core.AppendTranslations(nil))
	if warm == 0 {
		t.Fatal("expected warm TLB")
	}
	if err := bk.Transition(core, 2, true); err != nil {
		t.Fatal(err)
	}
	if len(core.AppendTranslations(nil)) != warm {
		t.Fatal("fast switch must not flush the tagged TLB")
	}
	// Slow transition flushes.
	if err := bk.Transition(core, 1, false); err != nil {
		t.Fatal(err)
	}
	if trs := core.AppendTranslations(nil); len(trs) != 0 {
		t.Fatalf("slow transition must flush the TLB, kept %v", trs)
	}
}

func TestPMPBudgetValidation(t *testing.T) {
	m, s := newWorld(t, 4)
	monRegion := phys.MakeRegion(phys.Addr(3<<20), 1<<20)
	bk, err := pmpbk.New(m, s, monRegion)
	if err != nil {
		t.Fatal(err)
	}
	if bk.Budget() != 3 {
		t.Fatalf("budget = %d, want 3 (4 entries - 1 reserved)", bk.Budget())
	}
	// Domain with 3 disjoint same-perm segments fits.
	if _, err := s.CreateRoot(1, mem(0, 2), cap.MemFull, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateRoot(1, mem(4, 2), cap.MemFull, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateRoot(1, mem(8, 2), cap.MemFull, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := bk.InstallDomain(1); err != nil {
		t.Fatal(err)
	}
	// A fourth disjoint segment exceeds the budget.
	if _, err := s.CreateRoot(1, mem(12, 2), cap.MemFull, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	err = bk.SyncDomainRange(1, phys.AllMemory)
	var exhausted *backend.PMPExhaustedError
	if !errors.As(err, &exhausted) {
		t.Fatalf("err = %v, want PMPExhaustedError", err)
	}
	if exhausted.Needed != 4 || exhausted.Available != 3 {
		t.Fatalf("exhausted = %+v", exhausted)
	}
}

func TestPMPTransitionProgramsAndProtectsMonitor(t *testing.T) {
	m, s := newWorld(t, 8)
	monRegion := phys.MakeRegion(phys.Addr(3<<20), 1<<20)
	bk, err := pmpbk.New(m, s, monRegion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateRoot(1, mem(0, 16), cap.MemFull, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateRoot(2, mem(16, 16), cap.MemFull, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := bk.InstallDomain(1); err != nil {
		t.Fatal(err)
	}
	if err := bk.InstallDomain(2); err != nil {
		t.Fatal(err)
	}
	core := m.Cores[0]
	if err := bk.Transition(core, 1, false); err != nil {
		t.Fatal(err)
	}
	f := core.Context().Filter
	if !f.Check(0, hw.PermR) {
		t.Fatal("domain 1 memory not programmed")
	}
	if f.Check(phys.Addr(16*pg), hw.PermR) {
		t.Fatal("domain 2 memory visible to domain 1")
	}
	if f.Check(monRegion.Start, hw.PermR) {
		t.Fatal("monitor region must be denied by the locked entry")
	}
	// Switch to domain 2: PMP reprogrammed.
	if err := bk.Transition(core, 2, false); err != nil {
		t.Fatal(err)
	}
	f = core.Context().Filter
	if f.Check(0, hw.PermR) || !f.Check(phys.Addr(16*pg), hw.PermR) {
		t.Fatal("PMP not reprogrammed for domain 2")
	}
	if f.Check(monRegion.Start, hw.PermW) {
		t.Fatal("monitor region exposed after reprogramming")
	}
	// No fast path.
	if err := bk.Transition(core, 1, true); !errors.Is(err, backend.ErrNoFastPath) {
		t.Fatalf("fast on pmp: %v", err)
	}
	if err := bk.RegisterFastPair(0, 1, 2); !errors.Is(err, backend.ErrNoFastPath) {
		t.Fatalf("register fast on pmp: %v", err)
	}
}

func TestPMPSyncReprogramsRunningCore(t *testing.T) {
	m, s := newWorld(t, 8)
	bk, err := pmpbk.New(m, s, phys.Region{})
	if err != nil {
		t.Fatal(err)
	}
	root, err := s.CreateRoot(1, mem(0, 16), cap.MemFull, cap.CleanNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := bk.InstallDomain(1); err != nil {
		t.Fatal(err)
	}
	core := m.Cores[0]
	if err := bk.Transition(core, 1, false); err != nil {
		t.Fatal(err)
	}
	if !core.Context().Filter.Check(0, hw.PermR) {
		t.Fatal("precondition: access works")
	}
	// Grant pages 0-7 away while domain 1 is on-core; sync must
	// immediately reprogram the running core's PMP.
	if _, err := s.Grant(root, 2, mem(0, 8), cap.MemRW, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := bk.SyncDomainRange(1, phys.AllMemory); err != nil {
		t.Fatal(err)
	}
	if core.Context().Filter.Check(0, hw.PermR) {
		t.Fatal("revoked access still programmed on running core")
	}
	if !core.Context().Filter.Check(phys.Addr(8*pg), hw.PermR) {
		t.Fatal("remaining access lost")
	}
}

// TestBackendContextStable: a (domain, core) has one context — the same
// pointer on every call, also while another domain is installed and
// removed between the calls. Once the domain is removed it is unknown,
// and the core it died on, still holding that context, is denied
// everything.
func TestBackendContextStable(t *testing.T) {
	backends := map[string]func(*hw.Machine, *cap.Space) backend.Backend{
		"vtx": func(m *hw.Machine, s *cap.Space) backend.Backend { return vtx.New(m, s) },
		"pmp": func(m *hw.Machine, s *cap.Space) backend.Backend {
			bk, err := pmpbk.New(m, s, phys.Region{})
			if err != nil {
				t.Fatal(err)
			}
			return bk
		},
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			m, s := newWorld(t, 8)
			bk := mk(m, s)
			if _, err := s.CreateRoot(1, mem(0, 16), cap.MemFull, cap.CleanNone); err != nil {
				t.Fatal(err)
			}
			if err := bk.InstallDomain(1); err != nil {
				t.Fatal(err)
			}
			var got [2]*hw.Context
			for i := 0; i < 50; i++ {
				for c := range got {
					ctx, err := bk.Context(1, phys.CoreID(c))
					if err != nil || ctx == nil || (got[c] != nil && got[c] != ctx) {
						t.Fatalf("Context(1, %d) = %p, %v after %p", c, ctx, err, got[c])
					}
					got[c] = ctx
				}
				if err := bk.InstallDomain(2); err != nil {
					t.Fatal(err)
				}
				if err := bk.RemoveDomain(2); err != nil {
					t.Fatal(err)
				}
			}
			if got[0] == got[1] || got[0].ASID != got[1].ASID || got[0].Owner != 1 {
				t.Fatalf("contexts %+v, %+v: want one per core, one ASID, owner 1", got[0], got[1])
			}
			if _, err := bk.Context(1, phys.CoreID(len(m.Cores))); err == nil {
				t.Fatal("context on a core the machine does not have")
			}

			core := m.Cores[0]
			if err := bk.Transition(core, 1, false); err != nil {
				t.Fatal(err)
			}
			if core.Context() != got[0] || !core.Context().Filter.Check(0, hw.PermR) {
				t.Fatal("transition did not install the domain's context with its memory")
			}
			if err := bk.RemoveDomain(1); err != nil {
				t.Fatal(err)
			}
			if _, err := bk.Context(1, 0); !errors.Is(err, backend.ErrUnknownDomain) {
				t.Fatalf("context of removed domain: %v", err)
			}
			if err := bk.RemoveDomain(1); !errors.Is(err, backend.ErrUnknownDomain) {
				t.Fatalf("second removal: %v", err)
			}
			if core.Context() != got[0] || core.Context().Filter.Check(0, hw.PermR) {
				t.Fatal("the core the domain died on must keep its context and be denied")
			}
		})
	}
}

func TestRunCleanups(t *testing.T) {
	m, s := newWorld(t, 0)
	_ = s
	r := phys.MakeRegion(0x4000, 2*pg)
	if err := m.Mem.WriteAt(r.Start, []byte{0xaa, 0xbb}); err != nil {
		t.Fatal(err)
	}
	// Core 0 ran the owner, so the shootdown targets it; core 1 never
	// did, so its translation (another domain's) is left alone.
	core, other := m.Cores[0], m.Cores[1]
	core.InstallContext(&hw.Context{Owner: 2, ASID: 1, Filter: hw.AllowAll{}})
	core.TLBUnit().Insert(1, r.Start.Page(), hw.PermRW, 0)
	other.TLBUnit().Insert(3, r.Start.Page(), hw.PermRW, 0)
	// Warm the data cache with a guest load of the region.
	code := hw.NewAsm().Movi(1, uint32(r.Start)).Ld(2, 1, 0).Hlt().MustAssemble(8 * pg)
	if err := m.Mem.WriteAt(8*pg, code); err != nil {
		t.Fatal(err)
	}
	core.PC = 8 * pg
	if _, trap := core.Run(10); trap.Kind != hw.TrapHalt || !core.CacheUnit().Probe(r.Start) {
		t.Fatalf("warming load: trap %v", trap)
	}
	acts := []cap.CleanupAction{{
		Owner:    2,
		Resource: cap.MemResource(r),
		Cleanup:  cap.CleanObfuscate,
	}}
	before := m.Clock.Cycles()
	if err := backend.RunCleanups(m, acts); err != nil {
		t.Fatal(err)
	}
	if m.Clock.Cycles() == before {
		t.Fatal("cleanups must charge cycles")
	}
	// The shootdown is only recorded: the operation that ran the
	// cleanups flushes it as its one round.
	if _, hit := core.TLBUnit().Lookup(1, r.Start.Page(), 0); !hit {
		t.Fatal("the cleanups ran a shootdown round before the flush")
	}
	if rounds, _ := m.FlushShootdowns(); rounds != 1 {
		t.Fatalf("flush ran %d rounds, want 1", rounds)
	}
	b, err := m.Mem.ReadByteAt(r.Start)
	if err != nil || b != 0 {
		t.Fatalf("memory not zeroed: %#x %v", b, err)
	}
	if _, hit := core.TLBUnit().Lookup(1, r.Start.Page(), 0); hit {
		t.Fatal("TLB entry survived the shootdown")
	}
	if _, hit := other.TLBUnit().Lookup(3, r.Start.Page(), 0); !hit {
		t.Fatal("the shootdown interrupted a core never resident for the owner")
	}
	if core.CacheUnit().Probe(r.Start) || core.CacheUnit().Flush() != 0 {
		t.Fatal("cache not flushed")
	}
	// CleanNone does nothing.
	if err := backend.RunCleanups(m, []cap.CleanupAction{{Resource: cap.MemResource(r)}}); err != nil {
		t.Fatal(err)
	}
	// Out-of-bounds zero reports an error.
	bad := []cap.CleanupAction{{
		Resource: cap.MemResource(phys.MakeRegion(phys.Addr(m.Mem.Size()), pg)),
		Cleanup:  cap.CleanZero,
	}}
	if err := backend.RunCleanups(m, bad); err == nil {
		t.Fatal("expected zeroing beyond memory to fail")
	}
}

// deviceFilter is dev's context built whole from s on an IOMMU of its
// own.
func deviceFilter(t testing.TB, s *cap.Space, dev phys.DeviceID) *hw.EPT {
	t.Helper()
	iu := hw.NewIOMMU(false)
	if err := backend.SyncDeviceRange(iu, s, dev, phys.AllMemory); err != nil {
		t.Fatal(err)
	}
	return iu.ContextOf(dev).(*hw.EPT)
}

func TestBuildDeviceFilterUnion(t *testing.T) {
	m, s := newWorld(t, 0)
	dev := phys.DeviceID(0)
	// Domain 1 holds DMA on the device and pages 0-3; domain 2 holds
	// the device without DMA and pages 8-11.
	d1mem, err := s.CreateRoot(1, mem(0, 4), cap.MemFull, cap.CleanNone)
	if err != nil {
		t.Fatal(err)
	}
	_ = d1mem
	if _, err := s.CreateRoot(1, cap.DeviceResource(dev), cap.DeviceFull, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateRoot(2, mem(8, 4), cap.MemFull, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateRoot(2, cap.DeviceResource(dev), cap.RightUse, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	f := deviceFilter(t, s, dev)
	if !f.Check(0, hw.PermR) {
		t.Fatal("DMA holder's memory missing from device filter")
	}
	if f.Check(phys.Addr(8*pg), hw.PermR) {
		t.Fatal("non-DMA holder's memory must not be reachable")
	}
	if f.Check(0, hw.PermX) {
		t.Fatal("device filter must not carry execute")
	}
	// A second DMA holder with read-only pages 2-5: where the holders
	// overlap the device gets the union of their rights, and the whole
	// filter is one flattened table.
	if _, err := s.CreateRoot(3, mem(2, 4), cap.MemRX, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateRoot(3, cap.DeviceResource(dev), cap.RightUse|cap.RightDMA, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	f = deviceFilter(t, s, dev)
	want := []hw.EPTMapping{
		{Region: phys.MakeRegion(0, 4*pg), Perm: hw.PermRW},
		{Region: phys.MakeRegion(4*pg, 2*pg), Perm: hw.PermR},
	}
	if got := f.Mappings(); !reflect.DeepEqual(got, want) {
		t.Fatalf("two-holder device filter = %v, want %v", got, want)
	}
	m.IOMMU.Attach(dev, f)
	m.IOMMU.DefaultAllow = false
	gpu := m.Device(dev)
	if err := gpu.DMAWrite(0, []byte{1}); err != nil {
		t.Fatalf("authorized DMA failed: %v", err)
	}
	if err := gpu.DMAWrite(phys.Addr(8*pg), []byte{1}); err == nil {
		t.Fatal("unauthorized DMA succeeded")
	}
}

// TestDifferentialBackends drives identical random capability workloads
// through both backends and checks they make identical accept/deny
// decisions at every sampled address — the paper's claim that the
// capability model is platform-independent and the backends merely
// enforce it (§4.1).
func TestDifferentialBackends(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))

		mV, sV := newWorld(t, 64)
		mP, sP := newWorld(t, 64)
		bkV := vtx.New(mV, sV)
		bkP, err := pmpbk.New(mP, sP, phys.Region{})
		if err != nil {
			t.Fatal(err)
		}

		type worldOp func(s *cap.Space) // same op applied to both spaces
		roots := map[cap.OwnerID]cap.NodeID{}
		apply := func(op worldOp) {
			op(sV)
			op(sP)
		}
		// Boot both worlds identically: domains 1..3 with root regions.
		for d := cap.OwnerID(1); d <= 3; d++ {
			d := d
			apply(func(s *cap.Space) {
				id, err := s.CreateRoot(d, mem(uint64(d-1)*64, 64), cap.MemFull, cap.CleanNone)
				if err != nil {
					t.Fatal(err)
				}
				roots[d] = id // same IDs in both spaces (deterministic)
			})
			if err := bkV.InstallDomain(d); err != nil {
				t.Fatal(err)
			}
			if err := bkP.InstallDomain(d); err != nil {
				t.Fatal(err)
			}
		}
		// Random shares/grants/revokes, mirrored.
		var created []cap.NodeID
		for i := 0; i < 40; i++ {
			switch rng.Intn(3) {
			case 0, 1:
				src := cap.OwnerID(rng.Intn(3) + 1)
				dst := cap.OwnerID(rng.Intn(3) + 1)
				off := uint64(rng.Intn(64)) + uint64(src-1)*64
				n := uint64(rng.Intn(8) + 1)
				if off+n > uint64(src)*64 {
					continue
				}
				grant := rng.Intn(2) == 0
				var gotV, gotP cap.NodeID
				var errV, errP error
				sub := mem(off, n)
				rights := cap.MemRW
				if grant {
					gotV, errV = sV.Grant(roots[src], dst, sub, rights, cap.CleanNone)
					gotP, errP = sP.Grant(roots[src], dst, sub, rights, cap.CleanNone)
				} else {
					gotV, errV = sV.Share(roots[src], dst, sub, rights, cap.CleanNone)
					gotP, errP = sP.Share(roots[src], dst, sub, rights, cap.CleanNone)
				}
				if (errV == nil) != (errP == nil) {
					t.Fatalf("seed %d op %d: divergent op outcome: %v vs %v", seed, i, errV, errP)
				}
				if errV == nil {
					if gotV != gotP {
						t.Fatalf("node IDs diverged: %d vs %d", gotV, gotP)
					}
					created = append(created, gotV)
				}
			case 2:
				if len(created) == 0 {
					continue
				}
				id := created[rng.Intn(len(created))]
				_, errV := sV.Revoke(id)
				_, errP := sP.Revoke(id)
				if (errV == nil) != (errP == nil) {
					t.Fatalf("seed %d: divergent revoke outcome", seed)
				}
			}
			// Sync everything in both worlds.
			for d := cap.OwnerID(1); d <= 3; d++ {
				if err := bkV.SyncDomain(d); err != nil {
					t.Fatalf("vtx sync: %v", err)
				}
				if err := bkP.SyncDomainRange(d, phys.AllMemory); err != nil {
					t.Fatalf("pmp sync: %v", err)
				}
			}
		}
		// Compare decisions: for each domain, transition a core in each
		// world and sample addresses.
		for d := cap.OwnerID(1); d <= 3; d++ {
			if err := bkV.Transition(mV.Cores[0], d, false); err != nil {
				t.Fatal(err)
			}
			if err := bkP.Transition(mP.Cores[0], d, false); err != nil {
				t.Fatal(err)
			}
			fV := mV.Cores[0].Context().Filter
			fP := mP.Cores[0].Context().Filter
			for pgN := uint64(0); pgN < 192; pgN += 2 {
				a := phys.Addr(pgN * pg)
				for _, p := range []hw.Perm{hw.PermR, hw.PermW} {
					dv, dp := fV.Check(a, p), fP.Check(a, p)
					if dv != dp {
						t.Fatalf("seed %d: domain %d at %v perm %v: vtx=%v pmp=%v",
							seed, d, a, p, dv, dp)
					}
					// Both must agree with the capability model.
					want := cap.RightRead
					if p == hw.PermW {
						want = cap.RightWrite
					}
					if model := sV.CheckMemAccess(d, a, want); model != dv {
						t.Fatalf("seed %d: domain %d at %v: model=%v hw=%v", seed, d, a, model, dv)
					}
				}
			}
		}
	}
}

// resyncWorld is the world the resync benchmarks rebuild filters for: a
// 16 MiB machine whose dom0 (owner 1) holds all memory below a monitor
// region, has granted four scattered pages to a second domain (so its
// own view is five segments) and shares the device with it — two DMA
// holders, as in the benchmark's cap_sync world.
func resyncWorld(b testing.TB) (*hw.Machine, *cap.Space) {
	b.Helper()
	m, err := hw.NewMachine(hw.Config{
		MemBytes: 16 << 20, NumCores: 2,
		Devices: []hw.DeviceConfig{{Name: "nic0", Class: hw.DevNIC}},
	})
	if err != nil {
		b.Fatal(err)
	}
	s := cap.NewSpace()
	root, err := s.CreateRoot(1, mem(0, 4032), cap.MemFull, cap.CleanNone)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := s.CreateRoot(1, cap.DeviceResource(0), cap.DeviceFull, cap.CleanNone)
	if err != nil {
		b.Fatal(err)
	}
	for _, page := range []uint64{100, 900, 1700, 2500} {
		if _, err := s.Grant(root, 2, mem(page, 1), cap.MemRW, cap.CleanZero); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := s.Share(dev, 2, cap.DeviceResource(0), cap.RightUse|cap.RightDMA, cap.CleanNone); err != nil {
		b.Fatal(err)
	}
	return m, s
}

// BenchmarkSyncDomainDom0 is the per-operation cost every share, grant
// and revoke pays for the grantor: flatten dom0's grants and publish its
// EPT. It follows the five segments, not the ~4000 pages under them.
func BenchmarkSyncDomainDom0(b *testing.B) {
	m, s := resyncWorld(b)
	bk := vtx.New(m, s)
	if err := bk.InstallDomain(1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bk.SyncDomain(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyncDomainTenant is what every share and revoke of the
// benchmark's cap_* worlds pays for the delegating tenant (owner 2): a
// dozen capabilities, one of them a 256-page heap with eight pages
// shared to its child, in a space of a few hundred nodes. The cost
// follows the dozen, not the few hundred.
func BenchmarkSyncDomainTenant(b *testing.B) {
	m, s := resyncWorld(b)
	root := s.OwnerNodes(1)[0].ID      // dom0's memory
	for i := uint64(0); i < 300; i++ { // bystanders' capabilities
		if _, err := s.Share(root, cap.OwnerID(10+i%5), mem(3000+i, 1), cap.MemRW, cap.CleanNone); err != nil {
			b.Fatal(err)
		}
	}
	for i := uint64(0); i < 11; i++ { // the tenant's image segments
		if _, err := s.Share(root, 2, mem(200+2*i, 1), cap.MemRWX, cap.CleanZero); err != nil {
			b.Fatal(err)
		}
	}
	heap, err := s.Share(root, 2, mem(1024, 256), cap.MemFull, cap.CleanZero)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if _, err := s.Share(heap, 3, mem(1040+i, 1), cap.MemRW, cap.CleanZero); err != nil {
			b.Fatal(err)
		}
	}
	bk := vtx.New(m, s)
	if err := bk.InstallDomain(2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bk.SyncDomain(2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildDeviceFilter resyncs the IOMMU context of a device with
// two DMA holders whose memory together covers the machine, after one
// of them grants a page to a domain outside the device and revokes it
// again, in turn: the resync splices that one page into the installed
// filter. Only the resync is timed.
func BenchmarkBuildDeviceFilter(b *testing.B) {
	m, s := resyncWorld(b)
	if err := backend.SyncDeviceRange(m.IOMMU, s, 0, phys.AllMemory); err != nil {
		b.Fatal(err)
	}
	root := s.OwnerMemoryGrants(1)[0].Node
	page := mem(3000, 1)
	var shared cap.NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var err error
		if shared == 0 {
			shared, err = s.Grant(root, 3, page, cap.MemRW, cap.CleanNone)
		} else {
			_, err = s.Revoke(shared)
			shared = 0
		}
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := backend.SyncDeviceRange(m.IOMMU, s, 0, page.Mem); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var pages uint64
	for _, r := range m.IOMMU.ContextOf(0).(*hw.EPT).Mappings() {
		pages += r.Region.Pages()
	}
	if want := uint64(4032); shared == 0 && pages != want || shared != 0 && pages != want-1 {
		b.Fatalf("filter covers %d pages", pages)
	}
}
