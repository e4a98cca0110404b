package core

import (
	"testing"

	"github.com/tyche-sim/tyche/internal/backend"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// tcWorld boots a world with dom0 current on core 0 and a callable
// enclave (entry set, core capability shared), the minimal shape for
// mediated Call/Return.
func tcWorld(t *testing.T, kind BackendKind) (*Monitor, DomainID, cap.NodeID) {
	t.Helper()
	m := bootWorld(t, kind)
	node := dom0MemNode(t, m)
	enclave, err := m.CreateDomain(InitialDomain, "enclave")
	if err != nil {
		t.Fatal(err)
	}
	a := hw.NewAsm()
	a.Hlt()
	if err := m.CopyInto(InitialDomain, 64*pg, a.MustAssemble(64*pg)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(InitialDomain, node, enclave, memRes(64, 1), cap.MemRWX, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, enclave, 64*pg); err != nil {
		t.Fatal(err)
	}
	var coreNode cap.NodeID
	for _, n := range m.OwnerNodes(InitialDomain) {
		if n.Resource.Kind == cap.ResCore && n.Resource.Core == 0 {
			coreNode = n.ID
		}
	}
	if _, err := m.Share(InitialDomain, coreNode, enclave, cap.CoreResource(0), cap.RightRun, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, InitialDomain, 4*pg); err != nil {
		t.Fatal(err)
	}
	if err := m.Launch(InitialDomain, 0); err != nil {
		t.Fatal(err)
	}
	return m, enclave, node
}

// TestTransitionCachePinnedHitMiss pins the exact hit/miss counts of a
// call/return workload around the two invalidation channels: a Revoke
// that bumps the capability-space generation, and a SetEntry that bumps
// the target's config generation. Misses must land exactly where the
// generations moved — no phantom hits across an invalidation, no
// phantom misses while the world is quiet.
func TestTransitionCachePinnedHitMiss(t *testing.T) {
	m, enclave, node := tcWorld(t, BackendVTX)
	m.SetTransitionCache(true)

	const N = 8
	callRet := func() {
		t.Helper()
		if err := m.Call(0, enclave); err != nil {
			t.Fatal(err)
		}
		if err := m.Return(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < N; i++ {
		callRet()
	}
	// First call misses and fills; the fill covers the paired return, so
	// everything after is a hit: 2N-1 hits, 1 miss.
	st := m.Stats()
	if st.TransCacheHits != 2*N-1 || st.TransCacheMisses != 1 {
		t.Fatalf("after %d pairs: hits=%d misses=%d, want %d/1",
			N, st.TransCacheHits, st.TransCacheMisses, 2*N-1)
	}

	// Channel 1: a Revoke bumps the capability-space generation; the
	// very next switch must miss the cache and revalidate.
	sh, err := m.Share(InitialDomain, node, enclave, memRes(100, 1), cap.MemRW, cap.CleanNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Revoke(InitialDomain, sh); err != nil {
		t.Fatal(err)
	}
	callRet()
	st = m.Stats()
	if st.TransCacheHits != 2*N || st.TransCacheMisses != 2 {
		t.Fatalf("after revoke: hits=%d misses=%d, want %d/2",
			st.TransCacheHits, st.TransCacheMisses, 2*N)
	}

	// Channel 2: SetEntry bumps only the enclave's config generation
	// (the capability space is untouched) — still a guaranteed miss.
	if err := m.SetEntry(InitialDomain, enclave, 64*pg); err != nil {
		t.Fatal(err)
	}
	callRet()
	st = m.Stats()
	if st.TransCacheHits != 2*N+1 || st.TransCacheMisses != 3 {
		t.Fatalf("after setentry: hits=%d misses=%d, want %d/3",
			st.TransCacheHits, st.TransCacheMisses, 2*N+1)
	}

	// Quiet world again: pure hits.
	callRet()
	st = m.Stats()
	if st.TransCacheHits != 2*N+3 || st.TransCacheMisses != 3 {
		t.Fatalf("quiet pair: hits=%d misses=%d, want %d/3",
			st.TransCacheHits, st.TransCacheMisses, 2*N+3)
	}
}

// TestTransitionCacheCycleCost: a cached switch costs the VMFunc tariff
// (~100 cycles, §4.1), not the exit/entry round trip the slow path
// pays — the C2 number the cache exists for.
func TestTransitionCacheCycleCost(t *testing.T) {
	m, enclave, _ := tcWorld(t, BackendVTX)
	cost := m.Machine().Cost
	m.SetTransitionCache(true)

	// Fill.
	if err := m.Call(0, enclave); err != nil {
		t.Fatal(err)
	}
	if err := m.Return(0); err != nil {
		t.Fatal(err)
	}
	before := m.Machine().Clock.Cycles()
	if err := m.Call(0, enclave); err != nil {
		t.Fatal(err)
	}
	hitCost := m.Machine().Clock.Cycles() - before
	if err := m.Return(0); err != nil {
		t.Fatal(err)
	}
	if hitCost > 2*cost.VMFunc {
		t.Fatalf("cached switch cost %d cycles, want ~VMFunc (%d)", hitCost, cost.VMFunc)
	}

	// The uncached switch pays the full round trip.
	m.SetTransitionCache(false)
	before = m.Machine().Clock.Cycles()
	if err := m.Call(0, enclave); err != nil {
		t.Fatal(err)
	}
	slowCost := m.Machine().Clock.Cycles() - before
	if err := m.Return(0); err != nil {
		t.Fatal(err)
	}
	if slowCost < cost.VMExit+cost.VMEntry {
		t.Fatalf("slow switch cost %d cycles, want >= %d", slowCost, cost.VMExit+cost.VMEntry)
	}
	if hitCost*5 > slowCost {
		t.Fatalf("cached/slow = %d/%d cycles: less than the 5x the cache promises", hitCost, slowCost)
	}
}

// TestTransitionCachePMPNeverCaches: a backend with no VMFUNC analogue
// refuses fast-pair registration, so the cache degrades to counted
// misses with fully correct slow-path behavior.
func TestTransitionCachePMPNeverCaches(t *testing.T) {
	m, enclave, _ := tcWorld(t, BackendPMP)
	m.SetTransitionCache(true)
	const N = 4
	for i := 0; i < N; i++ {
		if err := m.Call(0, enclave); err != nil {
			t.Fatal(err)
		}
		if err := m.Return(0); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.TransCacheHits != 0 || st.TransCacheMisses != 2*N {
		t.Fatalf("pmp: hits=%d misses=%d, want 0/%d", st.TransCacheHits, st.TransCacheMisses, 2*N)
	}
}

// TestTransitionCacheOffIsFree: with the cache disabled (the default)
// no counter moves — the opt-in leaves the pre-cache path untouched.
func TestTransitionCacheOffIsFree(t *testing.T) {
	m, enclave, _ := tcWorld(t, BackendVTX)
	for i := 0; i < 3; i++ {
		if err := m.Call(0, enclave); err != nil {
			t.Fatal(err)
		}
		if err := m.Return(0); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.TransCacheHits != 0 || st.TransCacheMisses != 0 {
		t.Fatalf("default-off moved counters: hits=%d misses=%d", st.TransCacheHits, st.TransCacheMisses)
	}
}

// TestTransitionCacheDeadTarget: killing the callee makes every cached
// entry for it unusable even before any generation comparison — a dead
// domain is never switched into.
func TestTransitionCacheDeadTarget(t *testing.T) {
	m, enclave, _ := tcWorld(t, BackendVTX)
	m.SetTransitionCache(true)
	if err := m.Call(0, enclave); err != nil {
		t.Fatal(err)
	}
	if err := m.Return(0); err != nil {
		t.Fatal(err)
	}
	if err := m.ForceKill(enclave); err != nil {
		t.Fatal(err)
	}
	if err := m.Call(0, enclave); err == nil {
		t.Fatal("call into a dead domain succeeded via the cache")
	}
}

// TestTransitionCacheWidensVMFUNCList pins why the cache stays opt-in.
// A fill registers the pair with the backend, and vtx.RegisterFastPair
// puts both contexts into the core's *guest-level* VMFUNC list. So with
// the cache off a hostile guest that VMFUNCs to every domain ID in the
// machine faults on every index, but with the cache on, after ONE
// mediated Call, the caller's VMFUNC to that callee — and only that one
// — switches views with no trap and no KTransition: the caller can
// re-enter a domain it once called without the monitor. ROADMAP item 6
// owns the isolation argument that would let the cache become the
// default; this is the fact it has to start from.
func TestTransitionCacheWidensVMFUNCList(t *testing.T) {
	m, enclave, node := tcWorld(t, BackendVTX)
	bystander, err := m.CreateDomain(InitialDomain, "bystander")
	if err != nil {
		t.Fatal(err)
	}
	// The probe page is executable in the callee's view too, so a VMFUNC
	// that does switch lands on the HLT behind it instead of a fetch
	// fault that would mask the switch.
	probe := phys.Addr(90 * pg)
	if _, err := m.Share(InitialDomain, node, enclave, memRes(90, 1), cap.MemRX, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	tr := m.Machine().NewTracer(trace.DefaultRingEntries)
	m.Machine().SetTracer(tr)
	transitions := func() (n int) {
		for _, ev := range tr.Events() {
			if ev.Kind == trace.KTransition {
				n++
			}
		}
		return n
	}
	// vmfunc runs "r14 = idx; VMFUNC; HLT" as dom0 on core 0 and reports
	// the trap that ended it, the domain then installed, and what the
	// monitor saw of it.
	vmfunc := func(idx uint64) (trap hw.Trap, in DomainID, exits uint64, trans int) {
		t.Helper()
		a := hw.NewAsm()
		a.Movi(14, uint32(idx)).Vmfunc().Hlt()
		if err := m.CopyInto(InitialDomain, probe, a.MustAssemble(probe)); err != nil {
			t.Fatal(err)
		}
		if err := m.SetEntry(InitialDomain, InitialDomain, probe); err != nil {
			t.Fatal(err)
		}
		if err := m.Launch(InitialDomain, 0); err != nil {
			t.Fatal(err)
		}
		exits0, trans0 := m.Stats().VMExits, transitions()
		res, err := m.RunCore(0, 100)
		if err != nil {
			t.Fatal(err)
		}
		return res.Trap, res.Domain, m.Stats().VMExits - exits0, transitions() - trans0
	}
	everyID := []DomainID{MonitorDomain, InitialDomain, enclave, bystander, 777}

	// Cache off (the default): a mediated call registers nothing, and
	// every index faults.
	callRet := func() {
		t.Helper()
		if err := m.Call(0, enclave); err != nil {
			t.Fatal(err)
		}
		if err := m.Return(0); err != nil {
			t.Fatal(err)
		}
	}
	callRet()
	for _, id := range everyID {
		if trap, _, _, _ := vmfunc(uint64(id)); trap.Kind != hw.TrapFault {
			t.Fatalf("cache off: VMFUNC to %d ended in %v, want a fault", id, trap)
		}
	}

	// Cache on, one mediated call: the pair — and nothing else — is now
	// reachable from guest code.
	m.SetTransitionCache(true)
	if err := m.Launch(InitialDomain, 0); err != nil {
		t.Fatal(err)
	}
	callRet()
	for _, id := range everyID {
		trap, in, exits, trans := vmfunc(uint64(id))
		if id != enclave && id != InitialDomain {
			if trap.Kind != hw.TrapFault {
				t.Fatalf("cache on: VMFUNC to %d ended in %v, want a fault", id, trap)
			}
			continue
		}
		// The callee's index switches views; the caller's own is a switch
		// to the view it is already in.
		if trap.Kind != hw.TrapHalt || in != id {
			t.Fatalf("cache on: VMFUNC to %d ended in %v inside domain %d, want halt inside %d", id, trap, in, id)
		}
		if exits != 0 || trans != 0 {
			t.Fatalf("cache on: VMFUNC to %d took %d monitor exits and %d KTransitions, want none", id, exits, trans)
		}
	}
}

// dropFast refuses the next n fast transitions, as a backend that has
// dropped the pair would.
type dropFast struct {
	backend.Backend
	n int
}

func (b *dropFast) Transition(c *hw.Core, to cap.OwnerID, fast bool) error {
	if fast && b.n > 0 {
		b.n--
		return backend.ErrNoFastPath
	}
	return b.Backend.Transition(c, to, fast)
}

// TestTransitionCacheDroppedPairFallsBack: a cache hit only vouches for
// the validation; if the backend no longer has the pair, the same
// transfer goes through on the full round trip as one counted miss —
// for a call and for a return — and a call refills, so the next pair of
// switches hits again.
func TestTransitionCacheDroppedPairFallsBack(t *testing.T) {
	m, enclave, _ := tcWorld(t, BackendVTX)
	cost := m.Machine().Cost
	m.SetTransitionCache(true)
	bk := &dropFast{Backend: m.bk}
	m.bk = bk
	timed := func(fn func() error) uint64 {
		t.Helper()
		before := m.Machine().Clock.Cycles()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		return m.Machine().Clock.Cycles() - before
	}
	call := func() error { return m.Call(0, enclave) }
	ret := func() error { return m.Return(0) }
	timed(call) // fill
	timed(ret)
	for _, sw := range []struct {
		name string
		fn   func() error
	}{{"call", call}, {"return", ret}} {
		before := m.Stats()
		bk.n = 1
		if c := timed(sw.fn); c != cost.VMExit+cost.VMEntry {
			t.Fatalf("dropped %s cost %d cycles, want the full round trip %d", sw.name, c, cost.VMExit+cost.VMEntry)
		}
		after := m.Stats()
		if after.TransCacheMisses != before.TransCacheMisses+1 || after.TransCacheHits != before.TransCacheHits ||
			after.Transitions != before.Transitions+1 {
			t.Fatalf("dropped %s: %+v -> %+v, want one transition, one miss, no hit", sw.name, before, after)
		}
	}
	before := m.Stats()
	if c := timed(call) + timed(ret); c != 2*cost.VMFunc {
		t.Fatalf("pair after the fallback cost %d cycles, want 2 x VMFunc (%d)", c, 2*cost.VMFunc)
	}
	if after := m.Stats(); after.TransCacheHits != before.TransCacheHits+2 {
		t.Fatalf("pair after the fallback: hits %d -> %d, want +2", before.TransCacheHits, after.TransCacheHits)
	}
}
