package core

import (
	"errors"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

// bootCoresWorld is bootWorld with a chosen core count, plus a tracer
// and online checker.
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

// runVCPUs is the smallest manager over the vCPU mechanism, for tests
// that need time-multiplexed tenants without internal/sched (which
// imports this package): each round, every core in order dispatches the
// head of one FIFO queue with a slice of quantum instructions; a vCPU
// cut off or yielding is saved and requeued, the rest leave. It stops
// after the given rounds or when the queue is empty, and returns what
// is still queued.
func runVCPUs(m *Monitor, cores []phys.CoreID, queue []VCPU, quantum, rounds int) ([]VCPU, error) {
	defer func() {
		for _, c := range cores {
			_ = m.ArmTimer(c, 0)
		}
	}()
	for ; rounds > 0 && len(queue) > 0; rounds-- {
		var round []Slice
		var on []VCPU
		for _, c := range cores {
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				ok, err := m.DispatchVCPU(v, c)
				if err != nil {
					return append(queue, v), err
				}
				if ok {
					_ = m.ArmTimer(c, quantum)
					round, on = append(round, Slice{Core: c, Budget: quantum}), append(on, v)
					break
				}
			}
		}
		m.RunSlices(round)
		for i, s := range round {
			if s.Err != nil {
				return queue, s.Err
			}
			switch s.Result.Stop() {
			case StopYield, StopTimer, StopBudget:
				if err := m.PreemptVCPU(on[i], s.Core); err != nil {
					return queue, err
				}
				queue = append(queue, on[i])
			}
		}
		m.Checkpoint()
	}
	return queue, nil
}

// vcpusFor creates one vCPU for each domain.
func vcpusFor(t testing.TB, m *Monitor, ids ...DomainID) []VCPU {
	t.Helper()
	var out []VCPU
	for _, id := range ids {
		v, err := m.CreateVCPU(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

// dispatch puts v on core and fails the test unless the monitor took it.
func dispatch(t testing.TB, m *Monitor, v VCPU, core phys.CoreID) {
	t.Helper()
	if ok, err := m.DispatchVCPU(v, core); !ok || err != nil {
		t.Fatalf("DispatchVCPU(%+v, %v) = %v, %v", v, core, ok, err)
	}
}

// A vCPU preempted by the timer keeps its registers and PC exactly while
// another tenant runs on the same core, and resumes with them; the
// monitor saves a core's state only into the vCPU it dispatched there.
func TestVCPUPreemptResumeExact(t *testing.T) {
	m, ck := bootCoresWorld(t, 2)
	cores := []phys.CoreID{0}
	spin, err := m.CreateDomain(InitialDomain, "spin")
	if err != nil {
		t.Fatal(err)
	}
	base := phys.Addr(64 * pg)
	a := hw.NewAsm()
	for r := 1; r < 8; r++ {
		a.Movi(r, uint32(r)*1000+7)
	}
	a.Label("loop")
	a.Add(3, 3, 1)
	a.Sub(5, 5, 2)
	a.Jmp("loop")
	if err := m.CopyInto(InitialDomain, base, a.MustAssemble(base)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(InitialDomain, dom0MemNode(t, m), spin, memRes(64, 1), cap.MemRWX, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, spin, base); err != nil {
		t.Fatal(err)
	}
	shareCores(t, m, spin, cores)
	other := loadTenant(t, m, "other", 65, 50, false, cores)
	vs := vcpusFor(t, m, spin, other)

	dispatch(t, m, vs[0], 0)
	_ = m.ArmTimer(0, 101)
	round := []Slice{{Core: 0, Budget: 10_000}}
	if m.RunSlices(round); round[0].Err != nil || round[0].Result.Stop() != StopTimer {
		t.Fatalf("first slice: %+v", round[0])
	}
	cpu := m.Machine().Core(0)
	regs, pc := cpu.Regs, cpu.PC
	if err := m.PreemptVCPU(vs[1], 0); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("saving core 0 into the other tenant's vCPU: %v, want ErrNotRunning", err)
	}
	if err := m.PreemptVCPU(vs[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := m.PreemptVCPU(vs[0], 0); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("saving twice: %v, want ErrNotRunning", err)
	}

	// Another tenant runs to completion on the same core, clobbering
	// every register.
	dispatch(t, m, vs[1], 0)
	if res, err := m.RunCore(0, 10_000); err != nil || res.Stop() != StopHalt {
		t.Fatalf("other tenant: %+v, %v", res, err)
	}
	if cpu.Regs == regs {
		t.Fatal("the other tenant left the registers as they were: the test proves nothing")
	}

	dispatch(t, m, vs[0], 0)
	if cpu.Regs != regs || cpu.PC != pc {
		t.Fatalf("resumed with regs %v pc %#x, want %v pc %#x", cpu.Regs, cpu.PC, regs, pc)
	}
	if ok, err := m.DispatchVCPU(vs[0], 1); ok || err != nil {
		t.Fatalf("dispatching a vCPU that is already on a core: %v, %v", ok, err)
	}
	assertTraceClean(t, m, ck)
}

// shareCores shares dom0's capability for each listed core with id.
func shareCores(t testing.TB, m *Monitor, id DomainID, cores []phys.CoreID) {
	t.Helper()
	for _, c := range cores {
		n, ok := m.callerCoreNode(InitialDomain, c)
		if !ok {
			t.Fatalf("dom0 holds no capability for %v", c)
		}
		if _, err := m.Share(InitialDomain, n, id, cap.CoreResource(c), cap.RightRun, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
	}
}

// A vCPU whose domain, running domain or saved caller died is never
// dispatched again: the dispatch drops it, and the kill itself touches
// no vCPU of another domain. The trace oracle's dead-domain silence
// cross-checks that no transition enters a dead domain.
func TestScheduledKillPurge(t *testing.T) {
	m, ck := bootCoresWorld(t, 2)
	cores := []phys.CoreID{0, 1}
	victim := loadTenant(t, m, "victim", 70, 1<<30, false, cores)
	x := loadTenant(t, m, "x", 71, 1<<30, false, cores)
	y := loadTenant(t, m, "y", 72, 4, false, cores)
	z := loadTenant(t, m, "z", 73, 4, false, cores)
	w := loadTenant(t, m, "w", 74, 1<<30, false, cores)
	vs := vcpusFor(t, m, victim, victim, x, w)

	// The victim's first vCPU is saved mid-run, its second never ran.
	dispatch(t, m, vs[0], 0)
	_ = m.ArmTimer(0, 16)
	if res, err := m.RunCore(0, 1_000); err != nil || res.Stop() != StopTimer {
		t.Fatalf("victim's slice: %+v, %v", res, err)
	}
	if err := m.PreemptVCPU(vs[0], 0); err != nil {
		t.Fatal(err)
	}
	// x's vCPU calls y, which calls z, and is saved running z: y is a
	// saved caller. w's vCPU calls z and is saved running z.
	for _, v := range []VCPU{vs[2], vs[3]} {
		dispatch(t, m, v, 1)
		if v == vs[2] {
			if err := m.Call(1, y); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Call(1, z); err != nil {
			t.Fatal(err)
		}
		if err := m.PreemptVCPU(v, 1); err != nil {
			t.Fatal(err)
		}
	}

	for _, id := range []DomainID{victim, y} {
		if err := m.ForceKill(id); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range vs[:3] {
		if ok, err := m.DispatchVCPU(v, 0); ok || err != nil {
			t.Fatalf("vCPU %d of a killed domain or caller dispatched: %v, %v", i, ok, err)
		}
	}
	// w's vCPU survives the kills, and dies with the domain it runs.
	dispatch(t, m, vs[3], 0)
	if cur, _ := m.Current(0); cur != z {
		t.Fatalf("w's vCPU resumed running %d, want %d", cur, z)
	}
	if err := m.PreemptVCPU(vs[3], 0); err != nil {
		t.Fatal(err)
	}
	if err := m.ForceKill(z); err != nil {
		t.Fatal(err)
	}
	if ok, err := m.DispatchVCPU(vs[3], 0); ok || err != nil {
		t.Fatalf("vCPU running a killed domain dispatched: %v, %v", ok, err)
	}
	assertTraceClean(t, m, ck)
}

// A dispatch that fails loses no vCPU: the error is returned, the vCPU
// keeps waiting — fresh or saved — and the next dispatch succeeds with
// its state intact.
func TestScheduledDispatchErrorLosesNoVCPU(t *testing.T) {
	m, ck := bootCoresWorld(t, 2)
	cores := []phys.CoreID{0, 1}
	a := loadTenant(t, m, "a", 64, 500, false, cores)
	b := loadTenant(t, m, "b", 65, 5, false, cores)
	vs := vcpusFor(t, m, a, b)
	dispatch(t, m, vs[0], 0)
	_ = m.ArmTimer(0, 40)
	if res, err := m.RunCore(0, 10_000); err != nil || res.Stop() != StopTimer {
		t.Fatalf("a's first slice: %+v, %v", res, err)
	}
	regs, pc := m.Machine().Core(0).Regs, m.Machine().Core(0).PC
	if err := m.PreemptVCPU(vs[0], 0); err != nil {
		t.Fatal(err)
	}

	refused := errors.New("transition refused")
	good := m.bk
	for _, v := range vs {
		m.bk = &failingBackend{Backend: good, transition: refused, refuse: cap.OwnerID(v.Domain)}
		if ok, err := m.DispatchVCPU(v, 1); ok || !errors.Is(err, refused) {
			t.Fatalf("DispatchVCPU(%+v) = %v, %v, want the refused transition", v, ok, err)
		}
		m.bk = good
	}
	dispatch(t, m, vs[0], 1)
	if c := m.Machine().Core(1); c.Regs != regs || c.PC != pc {
		t.Fatal("a resumed without its saved state after the failed dispatch")
	}
	dispatch(t, m, vs[1], 0)
	for _, c := range cores {
		if res, err := m.RunCore(c, 100_000); err != nil || res.Stop() != StopHalt {
			t.Fatalf("core %v: %+v, %v", c, res, err)
		}
	}
	assertTraceClean(t, m, ck)
}

// vCPU creation validates its domain, dispatch and save validate the
// handle, and a Launch on the core ends the vCPU's claim to it.
func TestScheduleValidation(t *testing.T) {
	m, _ := bootCoresWorld(t, 2)
	cores := []phys.CoreID{0, 1}
	tenant := loadTenant(t, m, "tenant", 64, 4, false, cores)
	if _, err := m.CreateVCPU(DomainID(99)); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("a vCPU for an unknown domain: %v", err)
	}
	noEntry, err := m.CreateDomain(InitialDomain, "blank")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateVCPU(noEntry); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("a vCPU for an entry-less domain: %v", err)
	}
	if ok, err := m.DispatchVCPU(VCPU{Domain: 99}, 0); ok || !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("dispatching an unknown domain's vCPU: %v, %v", ok, err)
	}
	if ok, err := m.DispatchVCPU(VCPU{Domain: tenant, Index: 3}, 0); ok || err != nil {
		t.Fatalf("dispatching a vCPU never created: %v, %v", ok, err)
	}
	v := vcpusFor(t, m, tenant)[0]
	dispatch(t, m, v, 0)
	if err := m.Launch(tenant, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.PreemptVCPU(v, 0); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("saving a vCPU after a Launch replaced it: %v", err)
	}
	if err := m.ArmTimer(9, 1); err == nil {
		t.Fatal("arming the timer of a core that does not exist")
	}
	res, err := m.RunCores(1_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r := res[0]; r.Trap.Kind != hw.TrapHalt {
		t.Fatalf("dedicated-mode run after the vCPU: %+v", res)
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
