package core

import (
	"fmt"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/fault"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

// Differential suite for the sharded checker: real workloads — fault
// containment, raw SMP, time-multiplexed vCPUs, submission rings —
// captured at 1/2/4/8 cores and replayed through BOTH checker
// implementations. Verdicts, violation messages, and event-derived
// counts must be identical; the serial Replay is the reference
// semantics the sharded rewrite must preserve.

// diffVictim builds a sealed enclave with an endless store loop over
// patterned exclusive data, pinned to the given core (buildVictim with
// the core parameterised so the 1-core shape works too).
func diffVictim(t *testing.T, m *Monitor, core phys.CoreID) DomainID {
	t.Helper()
	victim, err := m.CreateDomain(InitialDomain, "victim")
	if err != nil {
		t.Fatal(err)
	}
	a := hw.NewAsm()
	a.Movi(1, uint32(victimData*pg))
	a.Movi(2, 0)
	a.Label("loop")
	a.St(1, 0, 2)
	a.Addi(2, 2, 1)
	a.Jmp("loop")
	if err := m.CopyInto(InitialDomain, victimCode*pg, a.MustAssemble(victimCode*pg)); err != nil {
		t.Fatal(err)
	}
	if err := m.CopyInto(InitialDomain, victimData*pg, victimPattern); err != nil {
		t.Fatal(err)
	}
	node := dom0MemNode(t, m)
	if _, err := m.Grant(InitialDomain, node, victim, memRes(victimCode, 2), cap.MemRWX, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	for _, n := range m.OwnerNodes(InitialDomain) {
		if n.Resource.Kind == cap.ResCore && n.Resource.Core == core {
			if _, err := m.Share(InitialDomain, n.ID, victim, cap.CoreResource(core), cap.RightRun, cap.CleanNone); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.SetEntry(InitialDomain, victim, victimCode*pg); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Seal(InitialDomain, victim); err != nil {
		t.Fatal(err)
	}
	return victim
}

// diffFault: machine-check containment — victim on the last core takes
// an injected fault mid-store-loop and is force-killed with a scrub.
func diffFault(t *testing.T, m *Monitor, cores int) {
	core := phys.CoreID(cores - 1)
	victim := diffVictim(t, m, core)
	if err := m.Launch(victim, core); err != nil {
		t.Fatal(err)
	}
	sched, err := fault.ParseSchedule(fmt.Sprintf("mc%d@137", core))
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(sched...)
	in.Arm(m.Machine(), nil)
	res, err := m.RunCore(core, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap.Kind != hw.TrapMachineCheck {
		t.Fatalf("victim trap = %v, want machine-check", res.Trap)
	}
}

// diffSMP: one dedicated guest per core, all run concurrently through
// the trap-dispatch loop.
func diffSMP(t *testing.T, m *Monitor, cores int) {
	all := make([]phys.CoreID, cores)
	for c := 0; c < cores; c++ {
		all[c] = phys.CoreID(c)
		id := loadTenant(t, m, fmt.Sprintf("smp%d", c), uint64(80+c), 16, false, []phys.CoreID{phys.CoreID(c)})
		if err := m.Launch(id, phys.CoreID(c)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.RunCores(200_000, all...); err != nil {
		t.Fatal(err)
	}
}

// diffSched: vCPUs oversubscribed with yielding tenants through the
// dispatch/preempt mechanism — round barriers, resumes, vmcalls.
func diffSched(t *testing.T, m *Monitor, cores int) {
	all := make([]phys.CoreID, cores)
	for c := range all {
		all[c] = phys.CoreID(c)
	}
	var vs []VCPU
	for i := 0; i < cores+2; i++ {
		vs = append(vs, vcpusFor(t, m, loadTenant(t, m, fmt.Sprintf("tenant%d", i), uint64(80+i), 8, true, all))...)
	}
	if left, err := runVCPUs(m, all, vs, 64, 10_000); err != nil || len(left) > 0 {
		t.Fatalf("%d vCPUs left: %v", len(left), err)
	}
}

// diffRing: batched ABI — mixed verbs through the submission ring,
// flushed in coalesced batches, then a revoke and a kill through the
// plain API so shootdowns and scrubs land in the same trace.
func diffRing(t *testing.T, m *Monitor, cores int) {
	node := dom0MemNode(t, m)
	worker, err := m.CreateDomain(InitialDomain, "worker")
	if err != nil {
		t.Fatal(err)
	}
	const entries = 8
	base := ringAt(t, m, InitialDomain, 8, entries)
	for batch := 0; batch < 3; batch++ {
		enqueue(t, m, base, entries, CallSelfID)
		enqueue(t, m, base, entries, CallLog, uint64(batch))
		enqueue(t, m, base, entries, CallShare, uint64(node), uint64(worker),
			uint64(100+batch)*pg, pg, uint64(cap.MemRW))
		if _, err := m.RingFlush(InitialDomain); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.ForceKill(worker); err != nil {
		t.Fatal(err)
	}
}

// diffInject: a seeded dead-domain violation emitted straight into the
// trace (the hardware "speaks" for a killed domain) — both checkers
// must reject, with the same message.
func diffInject(t *testing.T, m *Monitor, cores int) {
	worker, err := m.CreateDomain(InitialDomain, "worker")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ForceKill(worker); err != nil {
		t.Fatal(err)
	}
	m.Machine().Trace(trace.GlobalCore, trace.KShare, uint64(worker), 0, 99, 0x1000, 4096)
}

// TestShardedDifferentialWorkloads runs every workload shape at every
// core count and pins serial-vs-sharded replay equivalence.
func TestShardedDifferentialWorkloads(t *testing.T) {
	skipUnlessOnlyMutation(t, false) // any armed mutation dirties the workloads
	workloads := []struct {
		name string
		run  func(*testing.T, *Monitor, int)
		want bool // true = the workload must end with a violation
	}{
		{"fault", diffFault, false},
		{"smp", diffSMP, false},
		{"sched", diffSched, false},
		{"ring", diffRing, false},
		{"inject", diffInject, true},
	}
	for _, cores := range []int{1, 2, 4, 8} {
		for _, w := range workloads {
			t.Run(fmt.Sprintf("%s/%dcore", w.name, cores), func(t *testing.T) {
				m, tr, _ := tracedWorldN(t, cores)
				w.run(t, m, cores)
				evs := tr.Events()
				if len(evs) == 0 {
					t.Fatal("workload produced no events")
				}
				serial := check.Replay(evs)
				sh := check.ReplaySharded(evs)
				serialErr, shErr := serial.Err(), sh.Err()
				if (serialErr == nil) != (shErr == nil) {
					t.Fatalf("verdicts differ:\n  serial:  %v\n  sharded: %v", serialErr, shErr)
				}
				if w.want && serialErr == nil {
					t.Fatal("seeded violation not flagged")
				}
				if !w.want && serialErr != nil {
					t.Fatalf("clean workload flagged: %v", serialErr)
				}
				a, b := violationMsgs(serial.Violations()), violationMsgs(sh.Violations())
				if len(a) != len(b) {
					t.Fatalf("violation multisets differ:\n  serial:  %q\n  sharded: %q", a, b)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("violation %d differs:\n  serial:  %s\n  sharded: %s", i, a[i], b[i])
					}
				}
				if cs, cq := serial.Counts(), sh.Counts(); cs != cq {
					t.Fatalf("counts differ:\n  serial:  %+v\n  sharded: %+v", cs, cq)
				}
			})
		}
	}
}
