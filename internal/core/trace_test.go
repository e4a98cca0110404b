package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/fault"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
	"github.com/tyche-sim/tyche/internal/trace"
	"github.com/tyche-sim/tyche/internal/trace/check"
	"github.com/tyche-sim/tyche/internal/trace/tracetest"
)

// attachChecker installs a tracer with an online invariant checker on
// an already-booted monitor and returns the checker.
func attachChecker(tb testing.TB, m *Monitor) *check.Checker {
	tb.Helper()
	tr := m.Machine().NewTracer(trace.DefaultRingEntries)
	ck := check.New()
	tr.Attach(ck)
	m.Machine().SetTracer(tr)
	return ck
}

// bootTracedWorld is bootWorld plus a tracer and online checker
// attached immediately after boot, so event-derived counts and
// Monitor.Stats() tally the same history from zero.
func bootTracedWorld(tb testing.TB, kind BackendKind) (*Monitor, *check.Checker) {
	tb.Helper()
	m := bootWorld(tb, kind)
	return m, attachChecker(tb, m)
}

// assertTraceClean is the oracle: no invariant violation anywhere in
// the run, and every event-derived counter agrees exactly with the
// monitor's own statistics. On violation the raw trace is dumped to
// $TYCHE_TRACE_DIR (the nightly fuzz job uploads it as an artifact).
func assertTraceClean(tb testing.TB, m *Monitor, ck *check.Checker) {
	tb.Helper()
	if err := ck.Err(); err != nil {
		dumpFailingTrace(tb, m)
		tb.Fatalf("trace checker: %v", err)
	}
	st := m.Stats()
	c := ck.Counts()
	for _, p := range []struct {
		name      string
		got, want uint64
	}{
		{"Transitions", c.Transitions, st.Transitions},
		{"FastSwitches", c.FastSwitches, st.FastSwitches},
		{"CapOps", c.CapOps, st.CapOps},
		{"Revocations", c.Revocations, st.Revocations},
		{"ForcedKills", c.ForcedKills, st.ForcedKills},
		{"MachineChecks", c.MachineChecks, st.MachineChecks},
		{"CoresParked", c.CoresParked, st.CoresParked},
		{"PagesScrubbed", c.PagesScrubbed, st.PagesScrubbed},
		{"IRQsRouted", c.IRQsRouted, st.IRQsRouted},
		{"IRQsDropped", c.IRQsDropped, st.IRQsDropped},
		{"Attests", c.Attests, st.Attests},
		{"Batches", c.Batches, st.RingFlushes},
		{"BatchedOps", c.BatchedOps, st.RingOps},
	} {
		if p.got != p.want {
			tb.Errorf("trace-derived %s = %d, Stats() says %d", p.name, p.got, p.want)
		}
	}
	// Every VM exit is either a VMCall or a machine check taken into
	// the monitor; the trace sees both kinds individually.
	if c.VMCalls+c.MachineChecks != st.VMExits {
		tb.Errorf("trace VMCalls+MachineChecks = %d+%d, Stats().VMExits = %d",
			c.VMCalls, c.MachineChecks, st.VMExits)
	}
}

// dumpFailingTrace writes the machine's trace in Chrome trace-event
// format to $TYCHE_TRACE_DIR, if set, for postmortem viewing.
func dumpFailingTrace(tb testing.TB, m *Monitor) {
	dir := os.Getenv("TYCHE_TRACE_DIR")
	if dir == "" {
		return
	}
	tr := m.Machine().Tracer()
	if tr == nil {
		return
	}
	name := strings.NewReplacer("/", "_", " ", "_", "#", "").Replace(tb.Name()) + ".trace.json"
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		tb.Logf("cannot dump trace: %v", err)
		return
	}
	defer f.Close()
	if err := trace.WriteChromeTrace(f, tr.Events()); err != nil {
		tb.Logf("cannot dump trace: %v", err)
		return
	}
	tb.Logf("failing trace written to %s", path)
}

// TestTracedAPIWorkloadChecksClean drives one of everything through a
// traced world on both backends: the checker must stay silent and its
// counts must reconcile with Stats().
func TestTracedAPIWorkloadChecksClean(t *testing.T) {
	for _, kind := range []BackendKind{BackendVTX, BackendPMP} {
		t.Run(string(kind), func(t *testing.T) {
			m, ck := bootTracedWorld(t, kind)
			node := dom0MemNode(t, m)
			worker, err := m.CreateDomain(InitialDomain, "worker")
			if err != nil {
				t.Fatal(err)
			}
			enclave, err := m.CreateDomain(InitialDomain, "enclave")
			if err != nil {
				t.Fatal(err)
			}
			shared, err := m.Share(InitialDomain, node, worker, memRes(100, 2), cap.MemRW, cap.CleanFlushTLB)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Grant(InitialDomain, node, worker, memRes(120, 1), cap.MemRW, cap.CleanZero); err != nil {
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
			if _, err := m.Seal(InitialDomain, enclave); err != nil {
				t.Fatal(err)
			}
			if err := m.Revoke(InitialDomain, shared); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Attest(enclave, []byte("traced")); err != nil {
				t.Fatal(err)
			}
			if err := m.ForceKill(worker); err != nil {
				t.Fatal(err)
			}
			assertTraceClean(t, m, ck)
			c := ck.Counts()
			if c.ForcedKills != 1 || c.Revocations < 1 || c.CapOps < 5 || c.PagesScrubbed < 1 {
				t.Fatalf("workload undercounted: %+v", c)
			}
			if kind == BackendVTX && c.Shootdowns == 0 {
				t.Fatal("CleanFlushTLB revoke produced no shootdown event")
			}
		})
	}
}

// tracedWorldN boots a vtx world like bootWorld but with a chosen core
// count and a large-ring tracer, for golden-trace comparisons.
func tracedWorldN(t *testing.T, cores int) (*Monitor, *trace.Tracer, *check.Checker) {
	t.Helper()
	mach, err := hw.NewMachine(hw.Config{
		MemBytes: 8 << 20, NumCores: cores, PMPEntries: 16,
		IOMMUAllowByDefault: true,
		Devices:             []hw.DeviceConfig{{Name: "gpu0", Class: hw.DevAccelerator}},
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
	tr := mach.NewTracer(1 << 15)
	ck := check.New()
	tr.Attach(ck)
	mach.SetTracer(tr)
	return m, tr, ck
}

// goldenFaultRun replays the canonical containment scenario — survivor
// on core 0, victim machine-checked on core 1 at instruction 137 —
// entirely from the test goroutine (sequential RunCore calls, so event
// order is schedule-determined) and returns the normalised trace.
func goldenFaultRun(t *testing.T, cores int) string {
	t.Helper()
	m, tr, ck := tracedWorldN(t, cores)
	victim := buildVictim(t, m)
	launchSurvivor(t, m)
	if res, err := m.RunCore(0, 100_000); err != nil || res.Trap.Kind != hw.TrapHalt {
		t.Fatalf("survivor run = %+v, %v", res, err)
	}
	if err := m.Launch(victim, 1); err != nil {
		t.Fatal(err)
	}
	sched, err := fault.ParseSchedule("mc1@137")
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(sched...)
	in.Arm(m.Machine(), nil)
	res, err := m.RunCore(1, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap.Kind != hw.TrapMachineCheck {
		t.Fatalf("victim trap = %v, want machine-check", res.Trap)
	}
	if _, err := m.Attest(InitialDomain, []byte("golden")); err != nil {
		t.Fatal(err)
	}
	assertTraceClean(t, m, ck)
	return tracetest.Normalize(tr.Events())
}

// TestGoldenTraceDeterminism: the same (seed, schedule) pair must
// produce a bit-identical normalised trace on every run and on
// machines with more cores — replayability is what makes the trace a
// usable bug report. Runs under -race and -shuffle like everything
// else; the sequential driving makes the event order deterministic.
func TestGoldenTraceDeterminism(t *testing.T) {
	first := goldenFaultRun(t, 2)
	if strings.TrimSpace(first) == "" {
		t.Fatal("golden run produced an empty trace")
	}
	if again := goldenFaultRun(t, 2); again != first {
		t.Fatalf("same-shape replay diverged:\n--- first\n%s--- again\n%s", first, again)
	}
	if wide := goldenFaultRun(t, 4); wide != first {
		t.Fatalf("4-core replay diverged:\n--- 2 cores\n%s--- 4 cores\n%s", first, wide)
	}
}

// TestShootdownMutationOracle is the mutation test for the checker
// itself: under the tracebug build tag the hardware "forgets" to flush
// (and ack) the last core on every TLB shootdown that targets it, and
// the checker must flag the very first revocation of what a domain
// running there loses. In normal builds the same run is
// clean — proof the oracle has teeth and no false positives.
func TestShootdownMutationOracle(t *testing.T) {
	skipUnlessOnlyMutation(t, hw.ShootdownBugArmed)
	m, ck, tr := bootDualTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	dom, err := m.CreateDomain(InitialDomain, "target")
	if err != nil {
		t.Fatal(err)
	}
	// The last core runs dom, so the revoke's round targets it.
	launchOn(t, m, dom, phys.CoreID(len(m.Machine().Cores)-1), 131)
	id, err := m.Share(InitialDomain, node, dom, memRes(130, 1), cap.MemRW, cap.CleanFlushTLB)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Revoke(InitialDomain, id); err != nil {
		t.Fatal(err)
	}
	err = assertCheckersAgree(t, ck, tr)
	if hw.ShootdownBugArmed {
		if err == nil {
			t.Fatal("seeded shootdown bug (tracebug) not flagged by the checker")
		}
		if !strings.Contains(err.Error(), "acked by") {
			t.Fatalf("wrong violation for seeded bug: %v", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("clean revoke flagged: %v", err)
	}
}

// TestStatsSnapshotConsistent is the regression test for Stats()
// returning a coherent point-in-time snapshot: while workers take turns
// to share+revoke, every snapshot must satisfy the workload's algebra
// exactly (each revoke is preceded by its share, both count as cap ops).
func TestStatsSnapshotConsistent(t *testing.T) {
	m, ck := bootTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	const workers = 4
	iters := 100
	if testing.Short() {
		iters = 20
	}
	doms := make([]DomainID, workers)
	for i := range doms {
		d, err := m.CreateDomain(InitialDomain, "snap")
		if err != nil {
			t.Fatal(err)
		}
		doms[i] = d
	}
	base := m.Stats()

	// Shares and revokes alternate per worker and the workers take
	// turns, so after every operation the algebra holds exactly: every
	// revoke follows its share, and open counts the shares not yet
	// revoked.
	check := func(open int) {
		t.Helper()
		st := m.Stats()
		caps, revs := st.CapOps-base.CapOps, st.Revocations-base.Revocations
		if caps != 2*revs+uint64(open) {
			t.Fatalf("incoherent snapshot: capOps delta %d, revocations delta %d, %d shares open", caps, revs, open)
		}
	}
	var ids [workers]cap.NodeID
	for n := 0; n < iters; n++ {
		for i := range doms {
			id, err := m.Share(InitialDomain, node, doms[i], memRes(uint64(140+i), 1), cap.MemRW, cap.CleanFlushTLB)
			if err != nil {
				t.Fatalf("share: %v", err)
			}
			ids[i] = id
			check(i + 1)
		}
		for i := range doms {
			if err := m.Revoke(InitialDomain, ids[i]); err != nil {
				t.Fatalf("revoke: %v", err)
			}
			check(workers - i - 1)
		}
	}

	st := m.Stats()
	if got, want := st.Revocations-base.Revocations, uint64(workers*iters); got != want {
		t.Fatalf("revocations = %d, want %d", got, want)
	}
	assertTraceClean(t, m, ck)
}
