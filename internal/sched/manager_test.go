package sched

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
	"github.com/tyche-sim/tyche/internal/trace"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

// The manager against a real monitor: these tests drive Scheduler.Run
// over the monitor's vCPU mechanism.

const pg = phys.PageSize

// bootWorld boots a monitor on a machine with the given core count, with
// a tracer and the online invariant checker attached.
func bootWorld(t testing.TB, cores int) (*core.Monitor, *check.Checker) {
	t.Helper()
	mach, err := hw.NewMachine(hw.Config{MemBytes: 8 << 20, NumCores: cores, PMPEntries: 16, IOMMUAllowByDefault: true})
	if err != nil {
		t.Fatal(err)
	}
	rot, err := tpm.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Boot(core.BootConfig{Machine: mach, TPM: rot, Backend: core.BackendVTX})
	if err != nil {
		t.Fatal(err)
	}
	tr := mach.NewTracer(trace.DefaultRingEntries)
	ck := check.New()
	tr.Attach(ck)
	mach.SetTracer(tr)
	return m, ck
}

// loadTenant creates a domain that loops iters iterations (yielding
// each one when yield is set) and halts, from one RWX code page at the
// given page number, runnable on the listed cores.
func loadTenant(t testing.TB, m *core.Monitor, page uint64, iters int, yield bool, cores []phys.CoreID) core.DomainID {
	t.Helper()
	id, err := m.CreateDomain(core.InitialDomain, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	base := phys.Addr(page * pg)
	a := hw.NewAsm()
	a.Movi(10, uint32(iters))
	a.Movi(12, 1)
	a.Label("loop")
	if yield {
		a.Movi(0, uint32(core.CallYield))
		a.Vmcall()
	}
	a.Sub(10, 10, 12)
	a.Jnz(10, "loop")
	a.Hlt()
	if err := m.CopyInto(core.InitialDomain, base, a.MustAssemble(base)); err != nil {
		t.Fatal(err)
	}
	for _, n := range m.OwnerNodes(core.InitialDomain) {
		var err error
		switch {
		case n.Resource.Kind == cap.ResMemory:
			_, err = m.Grant(core.InitialDomain, n.ID, id, cap.MemResource(phys.MakeRegion(base, pg)), cap.MemRWX, cap.CleanNone)
		case n.Resource.Kind == cap.ResCore && slices.Contains(cores, n.Resource.Core):
			_, err = m.Share(core.InitialDomain, n.ID, id, cap.CoreResource(n.Resource.Core), cap.RightRun|cap.RightShare, cap.CleanNone)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SetEntry(core.InitialDomain, id, base); err != nil {
		t.Fatal(err)
	}
	return id
}

// traceClean is the oracle: no invariant violation in the run, and the
// trace's transitions are the monitor's.
func traceClean(t testing.TB, m *core.Monitor, ck *check.Checker) {
	t.Helper()
	if err := ck.Err(); err != nil {
		t.Fatalf("trace checker: %v", err)
	}
	if got, want := ck.Counts().Transitions, m.Stats().Transitions; got != want {
		t.Fatalf("trace transitions %d, Stats() %d", got, want)
	}
}

// oversubscribed adds six tenants over two cores, the even ones
// yielding every iteration.
func oversubscribed(t testing.TB, m *core.Monitor, q *Scheduler) {
	t.Helper()
	for i := 0; i < 6; i++ {
		if err := q.Add(loadTenant(t, m, uint64(64+i), 40, i%2 == 0, q.Cores())); err != nil {
			t.Fatal(err)
		}
	}
}

// Six tenants over two cores: everyone completes, the preemption timer
// and CallYield both end slices, and the trace oracle stays clean over
// the whole oversubscribed run.
func TestScheduledOversubscription(t *testing.T) {
	m, ck := bootWorld(t, 2)
	q := New(m, Policy{Quantum: 32, Seed: 1}, cores(0, 1))
	oversubscribed(t, m, q)
	res, err := q.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("Run covered %d cores, want 2", len(res))
	}
	c := q.Counters()
	switch {
	case c.Completed != 6:
		t.Fatalf("Completed = %d, want 6 (counters %+v)", c.Completed, c)
	case c.Dispatches < 6 || c.Preemptions == 0 || c.Yields == 0 || c.MaxQueueDepth == 0:
		t.Fatalf("counters %+v: want ≥ 6 dispatches, preemptions, yields and a queue depth", c)
	case len(q.Latencies()) == 0 || q.LatencyP99() == 0:
		t.Fatalf("dispatch latency samples missing: %v", q.Latencies())
	case q.Pending() != 0:
		t.Fatalf("%d vCPUs still queued", q.Pending())
	}
	traceClean(t, m, ck)
}

// The schedule must replay bit-identically: same seed, same arrival
// order, same cycle counts → same dispatch records, hash, and final
// simulated clock.
func TestScheduledDeterminism(t *testing.T) {
	run := func() (uint64, uint64, []Record) {
		m, _ := bootWorld(t, 4)
		q := New(m, Policy{Quantum: 24, Seed: 42}, cores(0, 1, 2, 3))
		for i := 0; i < 10; i++ {
			if err := q.Add(loadTenant(t, m, uint64(80+i), 30, i%3 == 0, q.Cores())); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := q.Run(100_000); err != nil {
			t.Fatal(err)
		}
		return q.Hash(), m.Machine().Clock.Cycles(), q.Records()
	}
	h1, cy1, r1 := run()
	h2, cy2, r2 := run()
	if h1 != h2 || !slices.Equal(r1, r2) {
		t.Fatalf("schedule diverged across identical runs: %#x vs %#x\nrun1: %v\nrun2: %v", h1, h2, r1, r2)
	}
	if cy1 != cy2 {
		t.Fatalf("simulated cycles diverged: %d vs %d", cy1, cy2)
	}
	if len(r1) == 0 {
		t.Fatal("no dispatch records")
	}
}

// TestManagerReproducible: the manager drives the monitor on its
// caller's goroutine, so two runs at GOMAXPROCS 1 and 4 match in
// cycles, Stats(), per-core results, schedule hash and trace.
func TestManagerReproducible(t *testing.T) {
	type fingerprint struct {
		cycles uint64
		stats  core.Stats
		runs   map[phys.CoreID]core.RunResult
		hash   uint64
		events []trace.Event
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first *fingerprint
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 2; i++ {
			m, ck := bootWorld(t, 2)
			q := New(m, Policy{Quantum: 32, Seed: 1}, cores(0, 1))
			oversubscribed(t, m, q)
			runs, err := q.Run(100_000)
			if err != nil {
				t.Fatal(err)
			}
			traceClean(t, m, ck)
			got := fingerprint{m.Machine().Clock.Cycles(), m.Stats(), runs, q.Hash(), m.Machine().Tracer().Events()}
			if first == nil {
				first = &got
			} else if !reflect.DeepEqual(got, *first) {
				t.Fatalf("GOMAXPROCS=%d run %d differs from the first run: cycles %d/%d, hash %#x/%#x",
					procs, i, got.cycles, first.cycles, got.hash, first.hash)
			}
		}
	}
}

// A ForceKilled domain's queued vCPUs are dropped at their dispatch and
// never run again; the kill itself touches no queue. The trace
// oracle's dead-domain silence cross-checks the schedule records.
func TestScheduledKill(t *testing.T) {
	m, ck := bootWorld(t, 2)
	q := New(m, Policy{Quantum: 16, Seed: 3}, cores(0, 1))
	// The victim never terminates on its own; two vCPUs keep it queued.
	victim := loadTenant(t, m, 70, 1<<30, false, q.Cores())
	other := loadTenant(t, m, 71, 2000, false, q.Cores())
	for _, id := range []core.DomainID{victim, victim, other} {
		if err := q.Add(id); err != nil {
			t.Fatal(err)
		}
	}
	// First slice: everyone runs a little, then the budget expires with
	// the victim's vCPUs requeued.
	if _, err := q.Run(200); err != nil {
		t.Fatal(err)
	}
	preKill := len(q.Records())
	if preKill == 0 {
		t.Fatal("first slice dispatched nothing")
	}
	pending := q.Pending()
	if err := m.ForceKill(victim); err != nil {
		t.Fatal(err)
	}
	if q.Pending() != pending || q.Counters().Dropped != 0 {
		t.Fatal("the kill reached into the run queue")
	}
	if _, err := q.Run(100_000); err != nil {
		t.Fatal(err)
	}
	for _, r := range q.Records()[preKill:] {
		if r.Domain == victim {
			t.Fatalf("killed domain %d dispatched after its destruction: %+v", victim, r)
		}
	}
	if c := q.Counters(); c.Dropped != 2 || c.Completed != 1 {
		t.Fatalf("counters %+v: want both victim vCPUs dropped and the survivor completed", c)
	}
	traceClean(t, m, ck)
}

// A dispatch that fails loses no vCPU: the vCPUs dispatched before it in
// the round still run, the failing one goes back on its queue, the
// error is returned, and the record lists only dispatches that ran.
func TestScheduledDispatchErrorLosesNoVCPU(t *testing.T) {
	m, ck := bootWorld(t, 2)
	q := New(m, Policy{}, cores(0, 1))
	if err := q.Add(loadTenant(t, m, 64, 5, false, q.Cores())); err != nil { // placed on core 0
		t.Fatal(err)
	}
	q.enqueue(core.VCPU{Domain: 99}) // placed on core 1; the monitor has no domain 99
	res, err := q.Run(10_000)
	if !errors.Is(err, core.ErrNoSuchDomain) {
		t.Fatalf("Run = %v, want the failed dispatch", err)
	}
	if res[0].Trap.Kind != hw.TrapHalt || q.Counters().Completed != 1 {
		t.Fatalf("core 0 did not run in the failing round: %+v, counters %+v", res[0], q.Counters())
	}
	if n := len(q.Records()); n != 1 {
		t.Fatalf("%d dispatch records, want the one that ran", n)
	}
	if n := q.Depth(1); n != 1 {
		t.Fatalf("%d vCPUs queued on core 1 after the failed dispatch, want 1", n)
	}
	traceClean(t, m, ck)
}

// A tenant scheduled on one monitor migrates mid-run: its preempted
// vCPU crosses in the snapshot, the target recreates it, and the
// target's manager adopts it and runs it to completion.
func TestMigrateUnderManager(t *testing.T) {
	mA, ckA := bootWorld(t, 2)
	mB, ckB := bootWorld(t, 2)
	qA := New(mA, Policy{Quantum: 32, Seed: 1}, cores(1))
	id := loadTenant(t, mA, 220, 400, true, qA.Cores())
	if err := qA.Add(id); err != nil {
		t.Fatal(err)
	}
	if _, err := qA.Run(70); err != nil { // a few slices, far from done
		t.Fatal(err)
	}
	if qA.Pending() != 1 || qA.Counters().Yields == 0 {
		t.Fatalf("source run: pending %d, counters %+v", qA.Pending(), qA.Counters())
	}
	snap, err := mA.SnapshotDomain(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.VCPUs) != 1 || !snap.VCPUs[0].Started {
		t.Fatalf("snapshot vCPUs = %+v, want one started", snap.VCPUs)
	}
	if err := mA.DepartKill(id); err != nil {
		t.Fatal(err)
	}
	var node cap.NodeID
	for _, n := range mB.OwnerNodes(core.InitialDomain) {
		if n.Resource.Kind == cap.ResMemory {
			node = n.ID
		}
	}
	restored, err := mB.RestoreDomain(core.InitialDomain, node, []phys.CoreID{1}, snap)
	if err != nil {
		t.Fatal(err)
	}
	qB := New(mB, Policy{Quantum: 32, Seed: 1}, cores(1))
	qB.Adopt(restored, len(snap.VCPUs))
	if _, err := qB.Run(100_000); err != nil {
		t.Fatal(err)
	}
	if c := qB.Counters(); c.Completed != 1 || c.Dropped != 0 {
		t.Fatalf("target counters %+v: want the migrated vCPU completed", c)
	}
	// The source's queue still names the departed vCPU; its dispatch
	// drops it.
	if _, err := qA.Run(1_000); err != nil || qA.Counters().Dropped != 1 {
		t.Fatalf("source after departure: %v, counters %+v", err, qA.Counters())
	}
	traceClean(t, mA, ckA)
	traceClean(t, mB, ckB)
}
