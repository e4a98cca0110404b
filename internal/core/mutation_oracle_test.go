package core

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

// attachDualCheckers installs one tracer on an already-booted monitor
// with the online checker attached as its sink, and returns both: every
// mutation oracle checks the run twice — online, as runtime
// verification does, and by check.Replay of the tracer's events, the
// offline form of the same engine — so a seeded bug must be rejected
// both ways with the same violation messages. (FuzzTraceReplay's
// allocating twin is the oracle a bug in the shared engine cannot
// fool.)
func attachDualCheckers(tb testing.TB, m *Monitor) (*check.Checker, *trace.Tracer) {
	tb.Helper()
	tr := m.Machine().NewTracer(trace.DefaultRingEntries)
	ck := check.New()
	tr.Attach(ck)
	// SetTracer emits KBoot, so the sink must be attached first.
	m.Machine().SetTracer(tr)
	return ck, tr
}

// bootDualTracedWorld is bootWorld plus the online checker attached.
func bootDualTracedWorld(tb testing.TB, kind BackendKind) (*Monitor, *check.Checker, *trace.Tracer) {
	tb.Helper()
	m := bootWorld(tb, kind)
	ck, tr := attachDualCheckers(tb, m)
	return m, ck, tr
}

// skipUnlessOnlyMutation skips the calling oracle when a mutant other
// than own (a mutants row's name; "" for none) is compiled in: every
// mutant breaks real machinery, so a foreign bug trips the clean-run
// half of the other oracles (e.g. tracebug's unflushed core fails the
// scrub oracle's kill). Each mutant build runs every oracle; the
// foreign ones skip here.
func skipUnlessOnlyMutation(t *testing.T, own string) {
	t.Helper()
	if mutant != "" && mutant != own {
		t.Skipf("mutant %s is compiled in", mutant)
	}
}

// logCaught reports what an oracle caught, on the one line TestMutants
// reads back: the checkers' error and any further evidence.
func logCaught(t *testing.T, err error, evidence ...string) {
	t.Helper()
	verdict := strings.Join(strings.Fields(err.Error()), " ") // on one line
	t.Logf("caught: %s", strings.Join(append([]string{verdict}, evidence...), "; "))
}

// launchOn makes core resident for dom, so the shootdown rounds for
// what dom loses must target it: dom gets an executable page (shared
// with no cleanup), the right to run on core and its entry there, and
// is launched on core.
func launchOn(tb testing.TB, m *Monitor, dom DomainID, core phys.CoreID, page uint64) {
	tb.Helper()
	if _, err := m.Share(InitialDomain, dom0MemNode(tb, m), dom, memRes(page, 1), cap.MemRWX, cap.CleanNone); err != nil {
		tb.Fatal(err)
	}
	for _, n := range m.OwnerNodes(InitialDomain) {
		if n.Resource.Kind == cap.ResCore && n.Resource.Core == core {
			if _, err := m.Share(InitialDomain, n.ID, dom, cap.CoreResource(core), cap.RightRun, cap.CleanNone); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := m.SetEntry(InitialDomain, dom, phys.Addr(page*pg)); err != nil {
		tb.Fatal(err)
	}
	if err := m.Launch(dom, core); err != nil {
		tb.Fatal(err)
	}
}

// residentTenant builds the world the targeting rule is about: a tenant
// whose code page dom0 granted with a TLB-flushing cleanup runs on core
// 1, caching a translation of the page. With fast (vtx only) dom0 is
// launched there and fast-switches into the tenant, which runs and
// fast-switches back — so core 1 became resident for the tenant by a
// tagged switch alone, and keeps its translation and that residency
// while dom0 is installed; without, the tenant is launched and stays
// installed. It returns the tenant and the grant.
func residentTenant(tb testing.TB, m *Monitor, fast bool) (DomainID, cap.NodeID) {
	tb.Helper()
	dom, err := m.CreateDomain(InitialDomain, "tenant")
	if err != nil {
		tb.Fatal(err)
	}
	const code = 300
	a := hw.NewAsm()
	a.Label("spin")
	a.Jmp("spin")
	if err := m.CopyInto(InitialDomain, code*pg, a.MustAssemble(code*pg)); err != nil {
		tb.Fatal(err)
	}
	grant, err := m.Grant(InitialDomain, dom0MemNode(tb, m), dom, memRes(code, 1), cap.MemRWX, cap.CleanFlushTLB)
	if err != nil {
		tb.Fatal(err)
	}
	for _, n := range m.OwnerNodes(InitialDomain) {
		if n.Resource.Kind == cap.ResCore && n.Resource.Core == 1 {
			if _, err := m.Share(InitialDomain, n.ID, dom, cap.CoreResource(1), cap.RightRun, cap.CleanNone); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := m.SetEntry(InitialDomain, dom, code*pg); err != nil {
		tb.Fatal(err)
	}
	switch {
	case fast:
		if err := m.SetEntry(InitialDomain, InitialDomain, 301*pg); err != nil {
			tb.Fatal(err)
		}
		if err := m.RegisterFastPath(InitialDomain, dom, InitialDomain, 1); err != nil {
			tb.Fatal(err)
		}
		if err := m.Launch(InitialDomain, 1); err != nil {
			tb.Fatal(err)
		}
		if err := m.FastSwitch(1, dom); err != nil {
			tb.Fatal(err)
		}
	default:
		if err := m.Launch(dom, 1); err != nil {
			tb.Fatal(err)
		}
	}
	if res, err := m.RunCore(1, 8); err != nil || res.Trap.Kind != hw.TrapNone {
		tb.Fatalf("tenant run = %+v, %v", res, err)
	}
	if fast {
		if err := m.FastSwitch(1, InitialDomain); err != nil {
			tb.Fatal(err)
		}
	}
	return dom, grant
}

// TestRangeMutationOracle: under the rangebug mutant every shootdown
// round leaves out the highest core resident for its domains. Here that
// is core 1, which ran the tenant — on vtx entered and left by fast
// switches: the revoke of the tenant's code page must target it. The
// check, online and replayed, must flag the left-out core with one
// message, and the stale-translation oracle must find the translation
// core 1 kept; in the product the same run is clean on both counts,
// on both backends.
func TestRangeMutationOracle(t *testing.T) {
	skipUnlessOnlyMutation(t, "rangebug")
	for _, kind := range []BackendKind{BackendVTX, BackendPMP} {
		t.Run(string(kind), func(t *testing.T) {
			m, ck, tr := bootDualTracedWorld(t, kind)
			dom, grant := residentTenant(t, m, kind == BackendVTX)
			if err := checkStaleTranslations(m); err != nil {
				t.Fatal(err)
			}
			if err := m.Revoke(InitialDomain, grant); err != nil {
				t.Fatal(err)
			}
			stale := checkStaleTranslations(m)
			err := assertCheckersAgree(t, ck, tr)
			if mutant == "rangebug" {
				want := fmt.Sprintf("left out core 1, resident for domain %d", dom)
				if err == nil || len(ck.Violations()) != 1 || !strings.Contains(err.Error(), want) {
					t.Fatalf("seeded left-out core (rangebug): want one violation %q, got %v", want, err)
				}
				if stale == nil {
					t.Fatal("seeded left-out core (rangebug) kept no stale translation the oracle sees")
				}
				logCaught(t, err, "stale translation: "+stale.Error())
				return
			}
			if err != nil {
				t.Fatalf("clean revoke flagged: %v", err)
			}
			if stale != nil {
				t.Fatal(stale)
			}
		})
	}
}

// violationMsgs returns the sorted violation messages of a checker.
func violationMsgs(vs []check.Violation) []string {
	msgs := make([]string, len(vs))
	for i, v := range vs {
		msgs[i] = v.Msg
	}
	sort.Strings(msgs)
	return msgs
}

// assertCheckersAgree finalises the online checker, replays the
// tracer's events, and requires that both reached the same verdict with
// the same violation-message multiset. Returns the (shared) error for
// the caller's armed/clean gate.
func assertCheckersAgree(tb testing.TB, ck *check.Checker, tr *trace.Tracer) error {
	tb.Helper()
	if n := tr.Dropped(); n != 0 {
		tb.Fatalf("the trace rings overwrote %d events: the replay would judge a truncated trace", n)
	}
	replay := check.Replay(tr.Events())
	onlineErr, replayErr := ck.Err(), replay.Err()
	if (onlineErr == nil) != (replayErr == nil) {
		tb.Fatalf("checkers disagree on verdict:\n  online: %v\n  replay: %v", onlineErr, replayErr)
	}
	a, b := violationMsgs(ck.Violations()), violationMsgs(replay.Violations())
	if len(a) != len(b) {
		tb.Fatalf("violation counts differ: online %d %q, replay %d %q", len(a), a, len(b), b)
	}
	for i := range a {
		if a[i] != b[i] {
			tb.Fatalf("violation message %d differs:\n  online: %s\n  replay: %s", i, a[i], b[i])
		}
	}
	return onlineErr
}

// TestScrubMutationOracle: under the scrubbug mutant the kill path
// skips zeroing (and shooting down) the first planned exclusive
// region, so a KScrubPlan is left unmatched when KKill closes the
// destruction. Online and replayed, the check must flag the
// scrub-before-kill property; in the product the identical run must
// be clean.
func TestScrubMutationOracle(t *testing.T) {
	skipUnlessOnlyMutation(t, "scrubbug")
	m, ck, tr := bootDualTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	dom, err := m.CreateDomain(InitialDomain, "victim")
	if err != nil {
		t.Fatal(err)
	}
	// Grant transfers ownership, so the region is exclusively the
	// victim's and must be scrubbed when it dies.
	if _, err := m.Grant(InitialDomain, node, dom, memRes(150, 2), cap.MemRW, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := m.ForceKill(dom); err != nil {
		t.Fatal(err)
	}
	err = assertCheckersAgree(t, ck, tr)
	if mutant == "scrubbug" {
		if err == nil {
			t.Fatal("seeded skipped scrub (scrubbug) not flagged by the checkers")
		}
		if !strings.Contains(err.Error(), "killed with unscrubbed exclusive region") {
			t.Fatalf("wrong violation for seeded bug: %v", err)
		}
		logCaught(t, err)
		return
	}
	if err != nil {
		t.Fatalf("clean kill flagged: %v", err)
	}
}

// TestDrainMutationOracle: under the drainbug mutant the retire
// step flushes a drain round's first revocation's shootdowns on their
// own, so a second shootdown round retires inside the
// KDrainBegin/KDrainEnd frame. Online and replayed, the check must flag
// the one-round-per-frame property (5); in the product the identical
// run must be clean.
func TestDrainMutationOracle(t *testing.T) {
	skipUnlessOnlyMutation(t, "drainbug")
	m, ck, tr := bootDualTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	// Two ring-owning tenants, each with two revocable flush-on-revoke
	// shares: the round defers four revocations, whose shootdowns must
	// coalesce into ONE cross-ring round.
	const entries = 8
	for i := uint64(0); i < 2; i++ {
		dom, err := m.CreateDomain(InitialDomain, "tenant")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Grant(InitialDomain, node, dom, memRes(400+i*8, 1), cap.MemRW, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		base := ringAt(t, m, dom, 400+i*8, entries)
		for j := uint64(0); j < 2; j++ {
			id, err := m.Share(InitialDomain, node, dom, memRes(500+i*8+j, 1), cap.MemRW, cap.CleanFlushTLB)
			if err != nil {
				t.Fatal(err)
			}
			enqueue(t, m, base, entries, CallRevoke, uint64(id))
		}
	}
	if n := m.DrainRings(); n != 4 {
		t.Fatalf("round executed %d descriptors, want 4", n)
	}
	err := assertCheckersAgree(t, ck, tr)
	if mutant == "drainbug" {
		if err == nil {
			t.Fatal("seeded second drain shootdown round (drainbug) not flagged by the checkers")
		}
		if !strings.Contains(err.Error(), "drain round performed") {
			t.Fatalf("wrong violation for seeded bug: %v", err)
		}
		logCaught(t, err)
		return
	}
	if err != nil {
		t.Fatalf("clean drain round flagged: %v", err)
	}
}

// TestAckMutationOracle: under the ackbug mutant the first
// shootdown round that targets core 0 loses its acknowledgement (the flush itself
// still runs — a completion-protocol bug, unlike tracebug's stale
// TLB). Online and replayed, the check must flag the
// shootdown-round-completeness property when the enclosing operation
// retires short one ack.
func TestAckMutationOracle(t *testing.T) {
	skipUnlessOnlyMutation(t, "ackbug")
	m, ck, tr := bootDualTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	dom, err := m.CreateDomain(InitialDomain, "target")
	if err != nil {
		t.Fatal(err)
	}
	launchOn(t, m, dom, 0, 141)
	id, err := m.Share(InitialDomain, node, dom, memRes(140, 1), cap.MemRW, cap.CleanFlushTLB)
	if err != nil {
		t.Fatal(err)
	}
	// CleanFlushTLB makes the revoke run the machine's first cross-core
	// shootdown round, which targets core 0 (resident for dom) — the
	// one the armed mutation robs of an ack.
	if err := m.Revoke(InitialDomain, id); err != nil {
		t.Fatal(err)
	}
	err = assertCheckersAgree(t, ck, tr)
	if mutant == "ackbug" {
		if err == nil {
			t.Fatal("seeded lost ack (ackbug) not flagged by the checkers")
		}
		if !strings.Contains(err.Error(), "acked by") {
			t.Fatalf("wrong violation for seeded bug: %v", err)
		}
		logCaught(t, err)
		return
	}
	if err != nil {
		t.Fatalf("clean revoke flagged: %v", err)
	}
}

// TestMigrateMutationOracle: under the migratebug mutant the
// migration departure path (DepartKill) elides the source-side
// crypto-erase — the exclusive regions are announced for scrubbing but
// neither zeroed, shot down, nor key-erased, so the departed tenant's
// plaintext outlives the migration. Online and replayed, the check
// must flag the scrub-before-kill property; in the product the
// identical departure must be clean and the plaintext gone.
func TestMigrateMutationOracle(t *testing.T) {
	skipUnlessOnlyMutation(t, "migratebug")
	m, ck, tr := bootDualTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	dom, err := m.CreateDomain(InitialDomain, "departing")
	if err != nil {
		t.Fatal(err)
	}
	// The tenant's confidential working set: distinctive plaintext
	// landed before the exclusive grant (after it, dom0 has no access).
	secret := []byte("attested-migration-secret")
	secretAddr := phys.Addr(160 * pg)
	if err := m.CopyInto(InitialDomain, secretAddr, secret); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(InitialDomain, node, dom, memRes(160, 2), cap.MemRW, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := m.DepartKill(dom); err != nil {
		t.Fatal(err)
	}
	view, err := m.Machine().Mem.View(phys.MakeRegion(secretAddr, uint64(len(secret))))
	if err != nil {
		t.Fatal(err)
	}
	leaked := bytes.Contains(view, secret)
	err = assertCheckersAgree(t, ck, tr)
	if mutant == "migratebug" {
		if err == nil {
			t.Fatal("seeded elided departure erase (migratebug) not flagged by the checkers")
		}
		if !strings.Contains(err.Error(), "killed with unscrubbed exclusive region") {
			t.Fatalf("wrong violation for seeded bug: %v", err)
		}
		if !leaked {
			t.Fatal("migratebug compiled in but the plaintext was erased — the mutant is not wired to the departure path")
		}
		logCaught(t, err, "plaintext leaked")
		return
	}
	if err != nil {
		t.Fatalf("clean departure flagged: %v", err)
	}
	if leaked {
		t.Fatal("departed tenant's plaintext survived a clean DepartKill")
	}
}
