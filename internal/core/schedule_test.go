package core

import (
	"errors"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/sched"
	"github.com/tyche-sim/tyche/internal/tpm"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

// bootCoresWorld is bootWorld with a chosen core count (the scheduler
// suites oversubscribe, so two cores are often not enough), plus a
// tracer and online checker.
func bootCoresWorld(t testing.TB, cores int) (*Monitor, *check.Checker) {
	t.Helper()
	mach, err := hw.NewMachine(hw.Config{
		MemBytes: 8 << 20, NumCores: cores, PMPEntries: 16,
		IOMMUAllowByDefault: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rot, err := tpm.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Boot(BootConfig{Machine: mach, TPM: rot, Backend: BackendVTX})
	if err != nil {
		t.Fatal(err)
	}
	return m, attachChecker(t, m)
}

// loadTenant creates a domain that loops `iters` iterations (yielding
// each one when yield is set) and halts, granted one RWX code page
// and shared core capabilities over every listed core.
func loadTenant(t testing.TB, m *Monitor, name string, page uint64, iters int, yield bool, cores []phys.CoreID) DomainID {
	t.Helper()
	id, err := m.CreateDomain(InitialDomain, name)
	if err != nil {
		t.Fatal(err)
	}
	base := phys.Addr(page * pg)
	a := hw.NewAsm()
	a.Movi(10, uint32(iters))
	a.Movi(12, 1)
	a.Label("loop")
	if yield {
		a.Movi(0, uint32(CallYield))
		a.Vmcall()
	}
	a.Sub(10, 10, 12)
	a.Jnz(10, "loop")
	a.Hlt()
	if err := m.CopyInto(InitialDomain, base, a.MustAssemble(base)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(InitialDomain, dom0MemNode(t, m), id, memRes(page, 1), cap.MemRWX, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	for _, n := range m.OwnerNodes(InitialDomain) {
		if n.Resource.Kind != cap.ResCore {
			continue
		}
		for _, c := range cores {
			if n.Resource.Core == c {
				if _, err := m.Share(InitialDomain, n.ID, id, cap.CoreResource(c), cap.RightRun, cap.CleanNone); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := m.SetEntry(InitialDomain, id, base); err != nil {
		t.Fatal(err)
	}
	return id
}

// Six tenants over two cores: everyone completes, the preemption
// timer and CallYield both end slices, and the trace oracle stays
// clean over the whole oversubscribed run.
func TestScheduledOversubscription(t *testing.T) {
	m, ck := bootCoresWorld(t, 2)
	cores := []phys.CoreID{0, 1}
	m.SetSchedPolicy(&sched.Policy{Quantum: 32, Seed: 1})
	var tenants []DomainID
	for i := 0; i < 6; i++ {
		id := loadTenant(t, m, "tenant", uint64(64+i), 40, i%2 == 0, cores)
		tenants = append(tenants, id)
		if err := m.Schedule(id); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.RunCores(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("scheduled RunCores covered %d cores, want 2", len(res))
	}
	st := m.Stats()
	if st.SchedCompleted != uint64(len(tenants)) {
		t.Fatalf("SchedCompleted = %d, want %d (stats %+v)", st.SchedCompleted, len(tenants), st)
	}
	if st.SchedDispatches < uint64(len(tenants)) {
		t.Fatalf("SchedDispatches = %d, want >= %d", st.SchedDispatches, len(tenants))
	}
	if st.SchedPreemptions == 0 {
		t.Fatal("no timer preemptions in an oversubscribed run")
	}
	if st.SchedYields == 0 {
		t.Fatal("no yields despite yielding tenants")
	}
	if st.SchedMaxQueue == 0 {
		t.Fatal("queue depth never recorded")
	}
	q := m.Scheduler()
	if q == nil {
		t.Fatal("Scheduler() nil after a scheduled run")
	}
	if got := q.Counters().Dispatches; got != st.SchedDispatches {
		t.Fatalf("scheduler dispatches %d != Stats %d", got, st.SchedDispatches)
	}
	if len(q.Latencies()) == 0 || q.LatencyP99() == 0 {
		t.Fatalf("dispatch latency samples missing: %v", q.Latencies())
	}
	assertTraceClean(t, m, ck)
}

// The schedule must replay bit-identically: same seed, same arrival
// order, same cycle counts → same dispatch records, hash, and final
// simulated clock.
func TestScheduledDeterminism(t *testing.T) {
	run := func() (uint64, uint64, []sched.Record) {
		m, _ := bootCoresWorld(t, 4)
		cores := []phys.CoreID{0, 1, 2, 3}
		m.SetSchedPolicy(&sched.Policy{Quantum: 24, Seed: 42})
		for i := 0; i < 10; i++ {
			id := loadTenant(t, m, "d", uint64(80+i), 30, i%3 == 0, cores)
			if err := m.Schedule(id); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.RunCores(100_000); err != nil {
			t.Fatal(err)
		}
		return m.Scheduler().Hash(), m.Machine().Clock.Cycles(), m.Scheduler().Records()
	}
	h1, cy1, r1 := run()
	h2, cy2, r2 := run()
	if h1 != h2 {
		t.Fatalf("schedule hash diverged across identical runs: %#x vs %#x\nrun1: %v\nrun2: %v", h1, h2, r1, r2)
	}
	if cy1 != cy2 {
		t.Fatalf("simulated cycles diverged: %d vs %d", cy1, cy2)
	}
	if len(r1) == 0 {
		t.Fatal("no dispatch records")
	}
}

// A ForceKilled domain's queued vCPUs are purged and never
// re-dispatched; the trace oracle's dead-domain silence cross-checks
// the schedule records.
func TestScheduledKillPurge(t *testing.T) {
	m, ck := bootCoresWorld(t, 2)
	cores := []phys.CoreID{0, 1}
	m.SetSchedPolicy(&sched.Policy{Quantum: 16, Seed: 3})
	// The victim never terminates on its own; two vCPUs keep it queued.
	victim := loadTenant(t, m, "victim", 70, 1<<30, false, cores)
	other := loadTenant(t, m, "other", 71, 2000, false, cores)
	for _, id := range []DomainID{victim, victim, other} {
		if err := m.Schedule(id); err != nil {
			t.Fatal(err)
		}
	}
	// First slice: everyone runs a little, then the budget expires with
	// the victim's vCPUs requeued.
	if _, err := m.RunCores(200); err != nil {
		t.Fatal(err)
	}
	preKill := len(m.Scheduler().Records())
	if preKill == 0 {
		t.Fatal("first slice dispatched nothing")
	}
	if err := m.ForceKill(victim); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.SchedPurged < 2 {
		t.Fatalf("SchedPurged = %d, want >= 2 (both victim vCPUs were queued)", st.SchedPurged)
	}
	// Drain the rest: only the survivor may ever be dispatched again.
	if _, err := m.RunCores(100_000); err != nil {
		t.Fatal(err)
	}
	for _, r := range m.Scheduler().Records()[preKill:] {
		if r.Domain == uint64(victim) {
			t.Fatalf("killed domain %d dispatched after its destruction: %+v", victim, r)
		}
	}
	if st := m.Stats(); st.SchedCompleted != 1 {
		t.Fatalf("SchedCompleted = %d, want 1 (the survivor)", st.SchedCompleted)
	}
	assertTraceClean(t, m, ck)
}

// A dispatch that fails loses no vCPU: the vCPUs dispatched before it
// in the round still run, the failing vCPU goes back on its queue, the
// error is returned, and the record lists only dispatches that ran.
func TestScheduledDispatchErrorLosesNoVCPU(t *testing.T) {
	m, ck := bootCoresWorld(t, 2)
	cores := []phys.CoreID{0, 1}
	m.SetSchedPolicy(&sched.Policy{})
	a := loadTenant(t, m, "a", 64, 5, false, cores) // placed on core 0
	b := loadTenant(t, m, "b", 65, 5, false, cores) // placed on core 1
	for _, id := range []DomainID{a, b} {
		if err := m.Schedule(id); err != nil {
			t.Fatal(err)
		}
	}
	refused := errors.New("transition refused")
	good := m.bk
	m.bk = &failingBackend{Backend: good, transition: refused, refuse: cap.OwnerID(b)}
	res, err := m.RunCores(10_000)
	if !errors.Is(err, refused) {
		t.Fatalf("RunCores = %v, want the refused dispatch", err)
	}
	if res[0].Trap.Kind != hw.TrapHalt || m.Stats().SchedCompleted != 1 {
		t.Fatalf("a did not run in the failing round: core 0 %+v, stats %+v", res[0], m.Stats())
	}
	for _, r := range m.Scheduler().Records() {
		if r.Domain == uint64(b) {
			t.Fatalf("record lists b's dispatch, which never ran: %+v", r)
		}
	}
	if n := m.Scheduler().Pending(); n != 1 {
		t.Fatalf("%d vCPUs queued after the failed dispatch, want b's", n)
	}
	m.bk = good
	if _, err := m.RunCores(10_000); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.SchedCompleted != 2 || st.SchedDispatches != 2 {
		t.Fatalf("after the retry: %d completed of %d dispatched, want 2 of 2", st.SchedCompleted, st.SchedDispatches)
	}
	assertTraceClean(t, m, ck)
}

// Schedule validation and the policy lifecycle.
func TestScheduleValidation(t *testing.T) {
	m, _ := bootCoresWorld(t, 2)
	cores := []phys.CoreID{0, 1}
	tenant := loadTenant(t, m, "tenant", 64, 4, false, cores)

	if err := m.Schedule(tenant); err == nil {
		t.Fatal("Schedule without a policy must fail")
	}
	m.SetSchedPolicy(&sched.Policy{Quantum: 8})
	if err := m.Schedule(DomainID(99)); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("scheduling an unknown domain: %v", err)
	}
	noEntry, err := m.CreateDomain(InitialDomain, "blank")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Schedule(noEntry); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("scheduling an entry-less domain: %v", err)
	}
	if err := m.Schedule(tenant); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunCores(10_000); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.SchedCompleted != 1 {
		t.Fatalf("SchedCompleted = %d, want 1", st.SchedCompleted)
	}
	// Clearing the policy drops the queue and reverts RunCores to
	// dedicated-core mode.
	m.SetSchedPolicy(nil)
	if m.Scheduler() != nil {
		t.Fatal("Scheduler() should be nil after the policy is cleared")
	}
	if err := m.Launch(tenant, 0); err != nil {
		t.Fatal(err)
	}
	res, err := m.RunCores(1_000)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := res[0]; !ok || r.Trap.Kind != hw.TrapHalt {
		t.Fatalf("dedicated-mode run after policy clear: %+v", res)
	}
}

// A dedicated-mode guest that invokes CallYield hands control back to
// the embedder with Yielded set, and resumes after the call on the
// next RunCore.
func TestDedicatedYieldReturnsToEmbedder(t *testing.T) {
	m, _ := bootCoresWorld(t, 2)
	tenant := loadTenant(t, m, "tenant", 64, 3, true, []phys.CoreID{0})
	if err := m.Launch(tenant, 0); err != nil {
		t.Fatal(err)
	}
	yields := 0
	for i := 0; i < 50; i++ {
		res, err := m.RunCore(0, 1_000)
		if err != nil {
			t.Fatal(err)
		}
		if res.Yielded {
			yields++
			continue
		}
		if res.Trap.Kind == hw.TrapHalt {
			break
		}
		t.Fatalf("unexpected stop: %+v", res)
	}
	if yields != 3 {
		t.Fatalf("observed %d yields, want 3", yields)
	}
}

// Monitor.RunCores(budget) with no explicit cores runs *every* core
// with a domain installed — the variadic default — and skips idle
// cores.
func TestRunCoresDefaultRunsAllCores(t *testing.T) {
	m, _ := bootCoresWorld(t, 3)
	d0 := loadTenant(t, m, "a", 64, 5, false, []phys.CoreID{0})
	d1 := loadTenant(t, m, "b", 65, 5, false, []phys.CoreID{1})
	if err := m.Launch(d0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Launch(d1, 1); err != nil {
		t.Fatal(err)
	}
	// Core 2 has nothing installed and must not appear in the results.
	res, err := m.RunCores(1_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("RunCores() covered %d cores, want 2 (cores 0 and 1): %+v", len(res), res)
	}
	for _, c := range []phys.CoreID{0, 1} {
		r, ok := res[c]
		if !ok || r.Trap.Kind != hw.TrapHalt {
			t.Fatalf("core %v: %+v (ok=%v)", c, r, ok)
		}
	}
	if _, ok := res[2]; ok {
		t.Fatal("idle core 2 should not be driven by the variadic default")
	}
}
