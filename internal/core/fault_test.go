package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/fault"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
	"github.com/tyche-sim/tyche/internal/trace"
)

// Containment tests: every injected fault class must leave the system
// in a provably clean state — victim destroyed, exclusive memory
// scrubbed and reclaimed, hardware filters denying, isolation
// invariants intact, and every surviving domain's workload completing.
// Each scenario is replayable from its (seed, schedule) pair alone.

const (
	victimCode = 64 // page of the victim's code
	victimData = 65 // page of the victim's patterned data
)

// victimPattern fills the victim's data page so scrubbing is provable.
var victimPattern = bytes.Repeat([]byte{0xAB}, pg)

// buildVictim creates a sealed enclave on core 1 with two exclusive
// pages (code + patterned data) and an endless store loop, delegated
// with CleanNone so any zeroing observed later is the containment
// path's forced scrub, not the domain's own cleanup policy.
func buildVictim(t testing.TB, m *Monitor) DomainID {
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
	var coreNode cap.NodeID
	for _, n := range m.OwnerNodes(InitialDomain) {
		if n.Resource.Kind == cap.ResCore && n.Resource.Core == 1 {
			coreNode = n.ID
		}
	}
	if _, err := m.Share(InitialDomain, coreNode, victim, cap.CoreResource(1), cap.RightRun, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, victim, victimCode*pg); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Seal(InitialDomain, victim); err != nil {
		t.Fatal(err)
	}
	return victim
}

// launchSurvivor puts a sum-loop workload for dom0 on core 0; it must
// finish with r1 == 45 no matter what happens to other domains.
func launchSurvivor(t testing.TB, m *Monitor) {
	t.Helper()
	a := hw.NewAsm()
	a.Movi(1, 0)
	a.Movi(2, 0)
	a.Movi(3, 10)
	a.Label("loop")
	a.Add(1, 1, 2)
	a.Addi(2, 2, 1)
	a.Jlt(2, 3, "loop")
	a.Hlt()
	if err := m.CopyInto(InitialDomain, 4*pg, a.MustAssemble(4*pg)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, InitialDomain, 4*pg); err != nil {
		t.Fatal(err)
	}
	if err := m.Launch(InitialDomain, 0); err != nil {
		t.Fatal(err)
	}
}

// checkContained asserts the full post-kill state: victim dead, its
// pages scrubbed and back under dom0, filters denying, invariants
// holding, survivor workload completed.
func checkContained(t *testing.T, m *Monitor, victim DomainID, results map[phys.CoreID]RunResult) {
	t.Helper()
	if d, err := m.Domain(victim); err != nil || d.State() != StateDead {
		t.Fatalf("victim state = %v, %v; want dead", d, err)
	}
	for _, id := range m.Domains() {
		if id == victim {
			t.Fatal("dead victim still enumerated")
		}
	}
	// Memory reverted to dom0 and was scrubbed despite CleanNone.
	for _, page := range []uint64{victimCode, victimData} {
		if !m.CheckAccess(InitialDomain, phys.Addr(page*pg), cap.RightRead) {
			t.Fatalf("page %d not reclaimed by dom0", page)
		}
		data, err := m.CopyFrom(InitialDomain, phys.Addr(page*pg), pg)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range data {
			if b != 0 {
				t.Fatalf("page %d byte %d not scrubbed: %#x", page, i, b)
			}
		}
	}
	if st := m.Stats(); st.PagesScrubbed < 2 {
		t.Fatalf("PagesScrubbed = %d, want >= 2", st.PagesScrubbed)
	}
	// Survivor finished its workload with the right answer.
	if res, ok := results[0]; ok {
		if res.Trap.Kind != hw.TrapHalt {
			t.Fatalf("survivor trap = %v, want halt", res.Trap)
		}
	}
	if got := m.Machine().Core(0).Regs[1]; got != 45 {
		t.Fatalf("survivor result = %d, want 45", got)
	}
	checkIsolationInvariants(t, m, []DomainID{InitialDomain, victim})
}

func TestMachineCheckContainment(t *testing.T) {
	for _, kind := range []BackendKind{BackendVTX, BackendPMP} {
		t.Run(string(kind), func(t *testing.T) {
			m, ck := bootTracedWorld(t, kind)
			victim := buildVictim(t, m)
			launchSurvivor(t, m)
			if err := m.Launch(victim, 1); err != nil {
				t.Fatal(err)
			}
			sched, err := fault.ParseSchedule("mc1@100")
			if err != nil {
				t.Fatal(err)
			}
			in := fault.NewInjector(sched...)
			in.Arm(m.Machine(), nil)
			results, err := m.RunCores(100_000, 0, 1)
			if err != nil {
				t.Fatalf("RunCores: %v", err)
			}
			if results[1].Trap.Kind != hw.TrapMachineCheck {
				t.Fatalf("victim trap = %v, want machine-check", results[1].Trap)
			}
			if results[1].Domain != victim {
				t.Fatalf("trap attributed to domain %d, want %d", results[1].Domain, victim)
			}
			if !in.Exhausted() {
				t.Fatalf("schedule did not fire: %v", in.Fired())
			}
			checkContained(t, m, victim, results)
			st := m.Stats()
			if st.MachineChecks != 1 || st.ForcedKills != 1 || st.CoresParked != 1 {
				t.Fatalf("stats = %+v", st)
			}
			// Recovery: the parked core is immediately reusable.
			if err := m.Launch(InitialDomain, 1); err != nil {
				t.Fatalf("relaunch on parked core: %v", err)
			}
			if res, err := m.RunCore(1, 1000); err != nil || res.Trap.Kind != hw.TrapHalt {
				t.Fatalf("post-recovery run = %+v, %v", res, err)
			}
			assertTraceClean(t, m, ck)
		})
	}
}

func TestCoreStallContainment(t *testing.T) {
	m, ck := bootTracedWorld(t, BackendVTX)
	victim := buildVictim(t, m)
	launchSurvivor(t, m)
	if err := m.Launch(victim, 1); err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(fault.Fault{Kind: fault.CoreStall, Core: 1, After: 64})
	in.Arm(m.Machine(), nil)
	results, err := m.RunCores(100_000, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Trap.Kind != hw.TrapMachineCheck {
		t.Fatalf("victim trap = %v", results[1].Trap)
	}
	checkContained(t, m, victim, results)
	// The core is poisoned until the embedder resets it; after the
	// reset it schedules normally again.
	core1 := m.Machine().Core(1)
	if _, trap := core1.Run(1); trap.Kind != hw.TrapMachineCheck {
		t.Fatalf("core 1 should be stalled, stepped with %v", trap)
	}
	core1.ClearStall()
	if err := m.Launch(InitialDomain, 1); err != nil {
		t.Fatal(err)
	}
	if res, err := m.RunCore(1, 1000); err != nil || res.Trap.Kind != hw.TrapHalt {
		t.Fatalf("post-reset run = %+v, %v", res, err)
	}
	assertTraceClean(t, m, ck)
}

func TestMachineCheckOnInitialDomainParksCore(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	launchSurvivor(t, m) // dom0 on core 0
	in := fault.NewInjector(fault.Fault{Kind: fault.MachineCheck, Core: 0, After: 5})
	in.Arm(m.Machine(), nil)
	res, err := m.RunCore(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap.Kind != hw.TrapMachineCheck {
		t.Fatalf("trap = %v", res.Trap)
	}
	// dom0 is never destroyed — the core is parked instead.
	d, err := m.Domain(InitialDomain)
	if err != nil || d.State() != StateActive {
		t.Fatalf("dom0 = %v, %v; want active", d, err)
	}
	st := m.Stats()
	if st.CoresParked != 1 || st.ForcedKills != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Recovery by relaunch.
	if err := m.Launch(InitialDomain, 0); err != nil {
		t.Fatal(err)
	}
	if res, err := m.RunCore(0, 1000); err != nil || res.Trap.Kind != hw.TrapHalt {
		t.Fatalf("post-recovery run = %+v, %v", res, err)
	}
}

// runSignature captures everything a deterministic fault run must
// reproduce exactly.
func runSignature(m *Monitor, in *fault.Injector, results map[phys.CoreID]RunResult) string {
	st := m.Stats()
	var fired []string
	for _, fr := range in.Fired() {
		fired = append(fired, fr.String())
	}
	return fmt.Sprintf("trap=%v dom=%d steps=%d instrs=%d fired=%v scrubbed=%d checks=%d gen=%d",
		results[1].Trap, results[1].Domain, results[1].Steps,
		m.Machine().Core(1).InstrCount(), fired,
		st.PagesScrubbed, st.MachineChecks, m.CapGeneration())
}

func TestFaultReplaysFromSchedule(t *testing.T) {
	const schedule = "mc1@137"
	run := func() string {
		m := bootWorld(t, BackendVTX)
		victim := buildVictim(t, m)
		launchSurvivor(t, m)
		if err := m.Launch(victim, 1); err != nil {
			t.Fatal(err)
		}
		sched, err := fault.ParseSchedule(schedule)
		if err != nil {
			t.Fatal(err)
		}
		in := fault.NewInjector(sched...)
		in.Arm(m.Machine(), nil)
		results, err := m.RunCores(100_000, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return runSignature(m, in, results)
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("replay %d diverged:\n  first: %s\n  again: %s", i+1, first, got)
		}
	}
}

func TestSharedMemorySurvivesVictimKill(t *testing.T) {
	m, ck := bootTracedWorld(t, BackendVTX)
	victim := buildVictim(t, m)
	// Additionally share page 80 between dom0 and the victim... the
	// victim is sealed, so build the share before sealing is not
	// possible here; use a second, unsealed domain instead.
	extra, err := m.CreateDomain(InitialDomain, "sharer")
	if err != nil {
		t.Fatal(err)
	}
	shared := []byte("shared-contents-must-survive")
	if err := m.CopyInto(InitialDomain, 80*pg, shared); err != nil {
		t.Fatal(err)
	}
	node := dom0MemNode(t, m)
	if _, err := m.Share(InitialDomain, node, extra, memRes(80, 1), cap.MemRW, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	// Give the sharer an exclusive patterned page too.
	if err := m.CopyInto(InitialDomain, 82*pg, victimPattern); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(InitialDomain, node, extra, memRes(82, 1), cap.MemRW, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := m.ForceKill(extra); err != nil {
		t.Fatal(err)
	}
	// The shared page kept its contents (dom0 still co-owned it); the
	// exclusive page was scrubbed.
	got, err := m.CopyFrom(InitialDomain, 80*pg, uint64(len(shared)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shared) {
		t.Fatalf("shared page damaged: %q", got)
	}
	excl, err := m.CopyFrom(InitialDomain, 82*pg, pg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range excl {
		if b != 0 {
			t.Fatalf("exclusive byte %d not scrubbed: %#x", i, b)
		}
	}
	// ForceKill authorization and idempotence.
	if err := m.ForceKill(InitialDomain); !errors.Is(err, ErrDenied) {
		t.Fatalf("ForceKill(dom0) = %v, want denied", err)
	}
	if err := m.ForceKill(extra); !errors.Is(err, ErrDead) {
		t.Fatalf("double ForceKill = %v, want dead", err)
	}
	checkIsolationInvariants(t, m, []DomainID{InitialDomain, victim, extra})
	assertTraceClean(t, m, ck)
}

func TestDroppedIRQIsAbsorbed(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	launchIdle(t, m)
	var got []hw.IRQ
	if err := m.SetIRQHandler(InitialDomain, InitialDomain, func(c *hw.Core, irq hw.IRQ) error {
		got = append(got, irq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(fault.Fault{Kind: fault.DropIRQ, Device: 0, After: 1})
	in.Arm(m.Machine(), nil)
	m.Machine().RaiseIRQ(0, 1)
	m.Machine().RaiseIRQ(0, 2) // eaten by the fault
	m.Machine().RaiseIRQ(0, 3)
	cpu := m.Machine().Core(0)
	cpu.PC = 4 * pg
	cpu.ClearHalt()
	if _, err := m.RunCore(0, 10); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Vector != 1 || got[1].Vector != 3 {
		t.Fatalf("delivered = %+v, want vectors 1 and 3", got)
	}
	if m.Machine().PendingIRQs() != 0 {
		t.Fatal("controller queue not drained")
	}
	checkIsolationInvariants(t, m, []DomainID{InitialDomain})
}

func TestSpuriousIRQRoutedByCapability(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	launchIdle(t, m)
	var got []hw.IRQ
	if err := m.SetIRQHandler(InitialDomain, InitialDomain, func(c *hw.Core, irq hw.IRQ) error {
		got = append(got, irq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// A phantom interrupt for a device dom0 holds: routed like a real
	// one. A phantom for a device that does not exist: dropped, counted.
	in := fault.NewInjector(
		fault.Fault{Kind: fault.SpuriousIRQ, Device: 0, Vector: 7, After: 0},
		fault.Fault{Kind: fault.SpuriousIRQ, Device: 99, Vector: 3, After: 1},
	)
	in.Arm(m.Machine(), nil)
	cpu := m.Machine().Core(0)
	for i := 0; i < 2; i++ { // one poll per run; two phantoms armed
		cpu.PC = 4 * pg
		cpu.ClearHalt()
		if _, err := m.RunCore(0, 10); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 1 || got[0].Vector != 7 || got[0].Device != 0 {
		t.Fatalf("delivered = %+v, want the device-0 phantom", got)
	}
	st := m.Stats()
	if st.IRQsRouted != 1 || st.IRQsDropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
	checkIsolationInvariants(t, m, []DomainID{InitialDomain})
}

func TestTransientQuoteFailureRecovers(t *testing.T) {
	mach, err := hw.NewMachine(hw.Config{MemBytes: 4 << 20, NumCores: 1})
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
	in := fault.NewInjector(fault.Fault{Kind: fault.QuoteFail, After: 0, Count: 2})
	in.Arm(mach, rot)
	for i := 0; i < 2; i++ {
		if _, err := m.BootQuote([]byte("nonce")); !errors.Is(err, fault.ErrQuote) {
			t.Fatalf("quote %d: err = %v, want injected failure", i+1, err)
		}
	}
	// The fault is transient: the next quote succeeds and verifies
	// against the endorsement key — attestation recovers fully.
	q, err := m.BootQuote([]byte("nonce"))
	if err != nil {
		t.Fatalf("recovery quote: %v", err)
	}
	if err := tpm.VerifyQuote(rot.EndorsementKey(), q); err != nil {
		t.Fatalf("recovered quote does not verify: %v", err)
	}
	// Monitor-level attestation (its own key) was never affected.
	if _, err := m.Attest(InitialDomain, []byte("data")); err != nil {
		t.Fatalf("Attest during quote faults: %v", err)
	}
}

// TestSeededFaultCampaign drives FromSeed-derived schedules against
// full worlds — the closest test to the paper's "runtime verification"
// loop: inject whatever the seed says, contain, audit every invariant.
func TestSeededFaultCampaign(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			m, ck := bootTracedWorld(t, BackendVTX)
			victim := buildVictim(t, m)
			launchSurvivor(t, m)
			if err := m.Launch(victim, 1); err != nil {
				t.Fatal(err)
			}
			sched := fault.FromSeed(seed, 2, 1, 4)
			in := fault.NewInjector(sched...)
			in.Arm(m.Machine(), nil)
			if _, err := m.RunCores(50_000, 0, 1); err != nil {
				t.Fatalf("schedule %q: %v", fault.FormatSchedule(sched), err)
			}
			// Whatever fired, the survivor finished and the world is
			// consistent; if a core fault fired, the victim is dead and
			// scrubbed.
			if got := m.Machine().Core(0).Regs[1]; got != 45 {
				t.Fatalf("schedule %q: survivor result = %d", fault.FormatSchedule(sched), got)
			}
			coreFault := false
			for _, fr := range in.Fired() {
				if fr.Fault.Kind == fault.MachineCheck || fr.Fault.Kind == fault.CoreStall {
					coreFault = true
				}
			}
			if coreFault {
				if d, _ := m.Domain(victim); d.State() != StateDead {
					t.Fatalf("schedule %q fired a core fault but victim is %v",
						fault.FormatSchedule(sched), d.State())
				}
			}
			checkIsolationInvariants(t, m, []DomainID{InitialDomain, victim})
			assertTraceClean(t, m, ck)
		})
	}
}

// roundLog is a trace sink keeping the shootdown rounds it sees.
type roundLog []trace.Event

func (l *roundLog) Event(ev trace.Event) {
	if ev.Kind == trace.KShootdown {
		*l = append(*l, ev)
	}
}

// TestForceKillAllSharesOneRound: a kill's forced scrubs and cleanups
// retire behind one shootdown round, which targets the core a victim is
// resident on — for a kill storm, and for a single kill of a victim with
// two exclusive regions. When the kill returns every victim's two
// exclusive regions are zero and back under dom0, and the trace is
// clean.
func TestForceKillAllSharesOneRound(t *testing.T) {
	for _, row := range []struct {
		prefix  string // of the subtest name: a storm's rows are the backend's
		victims int
	}{
		{"", 4},
		{"single-", 1},
	} {
		for _, kind := range []BackendKind{BackendVTX, BackendPMP} {
			t.Run(row.prefix+string(kind), func(t *testing.T) {
				killInOneRound(t, kind, row.victims)
			})
		}
	}
}

// killInOneRound launches victims on core 1, each with two
// non-adjacent exclusive pages, and kills them: ForceKillAll for more
// than one, ForceKill for one.
func killInOneRound(t *testing.T, kind BackendKind, victims int) {
	m, ck := bootTracedWorld(t, kind)
	node := dom0MemNode(t, m)
	var coreNode cap.NodeID
	for _, n := range m.OwnerNodes(InitialDomain) {
		if n.Resource.Kind == cap.ResCore && n.Resource.Core == 1 {
			coreNode = n.ID
		}
	}
	var doms []DomainID
	var pages []uint64
	for i := 0; i < victims; i++ {
		code, data := uint64(200+4*i), uint64(202+4*i) // not adjacent: two scrub regions
		if err := m.CopyInto(InitialDomain, phys.Addr(data*pg), victimPattern); err != nil {
			t.Fatal(err)
		}
		v, err := m.CreateDomain(InitialDomain, fmt.Sprintf("victim%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Grant(InitialDomain, node, v, memRes(code, 1), cap.MemRWX, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Grant(InitialDomain, node, v, memRes(data, 1), cap.MemRW, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Share(InitialDomain, coreNode, v, cap.CoreResource(1), cap.RightRun, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		if err := m.SetEntry(InitialDomain, v, phys.Addr(code*pg)); err != nil {
			t.Fatal(err)
		}
		if err := m.Launch(v, 1); err != nil {
			t.Fatal(err)
		}
		doms = append(doms, v)
		pages = append(pages, code, data)
	}
	var rounds roundLog
	m.Machine().Tracer().Attach(&rounds)
	scrubbed := m.Stats().PagesScrubbed
	if victims == 1 {
		if err := m.ForceKill(doms[0]); err != nil {
			t.Fatalf("ForceKill: %v", err)
		}
	} else if n, err := m.ForceKillAll(doms...); n != victims || err != nil {
		t.Fatalf("ForceKillAll = %d, %v; want %d, nil", n, err, victims)
	}
	if len(rounds) != 1 {
		t.Fatalf("kill of %d victims ran %d shootdown rounds, want 1", victims, len(rounds))
	}
	if rounds[0].Aux&(1<<1) == 0 {
		t.Fatalf("kill round targets cores %#b, want core 1, where the last victim is resident", rounds[0].Aux)
	}
	if got := m.Stats().PagesScrubbed - scrubbed; got != 2*uint64(victims) {
		t.Fatalf("kill scrubbed %d pages, want %d", got, 2*victims)
	}
	for _, page := range pages {
		data, err := m.CopyFrom(InitialDomain, phys.Addr(page*pg), pg)
		if err != nil {
			t.Fatalf("page %d not back under dom0: %v", page, err)
		}
		if !bytes.Equal(data, make([]byte, pg)) {
			t.Fatalf("page %d not scrubbed", page)
		}
	}
	assertTraceClean(t, m, ck)
}
