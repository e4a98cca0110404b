package core

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

// attachDualCheckers installs one tracer feeding BOTH the serial
// checker (ordinary sink) and the sharded incremental checker
// (per-ring shard sink) on an already-booted monitor. Every mutation
// oracle runs through this so a seeded bug must be rejected by both
// checkers with the same violation messages — the agreement is what
// proves the sharded rewrite didn't weaken any invariant.
func attachDualCheckers(tb testing.TB, m *Monitor) (*check.Checker, *check.Sharded) {
	tb.Helper()
	tr := m.Machine().NewTracer(trace.DefaultRingEntries)
	ck := check.New()
	tr.Attach(ck)
	sh := check.NewSharded(tr)
	tr.AttachSharded(sh)
	// SetTracer emits KBoot, so both sinks must be attached first.
	m.Machine().SetTracer(tr)
	return ck, sh
}

// bootDualTracedWorld is bootWorld plus both checkers attached.
func bootDualTracedWorld(tb testing.TB, kind BackendKind) (*Monitor, *check.Checker, *check.Sharded) {
	tb.Helper()
	m := bootWorld(tb, kind)
	ck, sh := attachDualCheckers(tb, m)
	return m, ck, sh
}

// skipUnlessOnlyMutation skips the calling oracle when a *different*
// seeded mutation is compiled in: every mutation breaks real
// machinery, so a foreign bug trips the clean-run half of the other
// oracles (e.g. tracebug's unflushed core fails the scrub oracle's
// kill). Each CI mutation leg builds with exactly one tag and runs
// all four oracles; the three foreign ones skip here.
func skipUnlessOnlyMutation(t *testing.T, own bool) {
	t.Helper()
	anyArmed := hw.ShootdownBugArmed || hw.AckBugArmed || ScrubBugArmed || EpochBugArmed || DrainBugArmed || MigrateBugArmed
	if anyArmed && !own {
		t.Skip("a different seeded mutation is armed")
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

// assertCheckersAgree finalises both checkers and requires that they
// reached the same verdict with the same violation-message multiset.
// Returns the (shared) error for the caller's armed/clean gate.
func assertCheckersAgree(tb testing.TB, ck *check.Checker, sh *check.Sharded) error {
	tb.Helper()
	serialErr, shardErr := ck.Err(), sh.Err()
	if (serialErr == nil) != (shardErr == nil) {
		tb.Fatalf("checkers disagree on verdict:\n  serial:  %v\n  sharded: %v", serialErr, shardErr)
	}
	a, b := violationMsgs(ck.Violations()), violationMsgs(sh.Violations())
	if len(a) != len(b) {
		tb.Fatalf("violation counts differ: serial %d %q, sharded %d %q", len(a), a, len(b), b)
	}
	for i := range a {
		if a[i] != b[i] {
			tb.Fatalf("violation message %d differs:\n  serial:  %s\n  sharded: %s", i, a[i], b[i])
		}
	}
	return serialErr
}

// TestScrubMutationOracle: under the scrubbug build tag the kill path
// skips zeroing (and shooting down) the first planned exclusive
// region, so a KScrubPlan is left unmatched when KKill closes the
// destruction. Both checkers must flag the scrub-before-kill property;
// in normal builds the identical run must be clean.
func TestScrubMutationOracle(t *testing.T) {
	skipUnlessOnlyMutation(t, ScrubBugArmed)
	m, ck, sh := bootDualTracedWorld(t, BackendVTX)
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
	err = assertCheckersAgree(t, ck, sh)
	if ScrubBugArmed {
		if err == nil {
			t.Fatal("seeded skipped scrub (scrubbug) not flagged by the checkers")
		}
		if !strings.Contains(err.Error(), "killed with unscrubbed exclusive region") {
			t.Fatalf("wrong violation for seeded bug: %v", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("clean kill flagged: %v", err)
	}
}

// TestDrainMutationOracle: under the drainbug build tag the retire
// step runs a drain round's first revocation's flush cleanups OUTSIDE
// the round's shootdown accumulator, so extra unbatched shootdown
// rounds retire inside the KDrainBegin/KDrainEnd frame. Both checkers
// must flag the cross-ring coalescing property (6); in normal builds
// the identical run must be clean.
func TestDrainMutationOracle(t *testing.T) {
	skipUnlessOnlyMutation(t, DrainBugArmed)
	m, ck, sh := bootDualTracedWorld(t, BackendVTX)
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
	err := assertCheckersAgree(t, ck, sh)
	if DrainBugArmed {
		if err == nil {
			t.Fatal("seeded uncoalesced drain shootdowns (drainbug) not flagged by the checkers")
		}
		if !strings.Contains(err.Error(), "drain round performed") {
			t.Fatalf("wrong violation for seeded bug: %v", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("clean drain round flagged: %v", err)
	}
}

// TestAckMutationOracle: under the ackbug build tag exactly one
// shootdown round loses core 0's acknowledgement (the flush itself
// still runs — a completion-protocol bug, unlike tracebug's stale
// TLB). Both checkers must flag the shootdown-round-completeness
// property when the enclosing operation retires short one ack.
func TestAckMutationOracle(t *testing.T) {
	skipUnlessOnlyMutation(t, hw.AckBugArmed)
	m, ck, sh := bootDualTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	dom, err := m.CreateDomain(InitialDomain, "target")
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Share(InitialDomain, node, dom, memRes(140, 1), cap.MemRW, cap.CleanFlushTLB)
	if err != nil {
		t.Fatal(err)
	}
	// CleanFlushTLB makes the revoke run the machine's first cross-core
	// shootdown round — the one the armed mutation robs of an ack.
	if err := m.Revoke(InitialDomain, id); err != nil {
		t.Fatal(err)
	}
	err = assertCheckersAgree(t, ck, sh)
	if hw.AckBugArmed {
		if err == nil {
			t.Fatal("seeded lost ack (ackbug) not flagged by the checkers")
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

// TestMigrateMutationOracle: under the migratebug build tag the
// migration departure path (DepartKill) elides the source-side
// crypto-erase — the exclusive regions are announced for scrubbing but
// neither zeroed, shot down, nor key-erased, so the departed tenant's
// plaintext outlives the migration. Both checkers must flag the
// scrub-before-kill property; in normal builds the identical departure
// must be clean and the plaintext gone.
func TestMigrateMutationOracle(t *testing.T) {
	skipUnlessOnlyMutation(t, MigrateBugArmed)
	m, ck, sh := bootDualTracedWorld(t, BackendVTX)
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
	err = assertCheckersAgree(t, ck, sh)
	if MigrateBugArmed {
		if err == nil {
			t.Fatal("seeded elided departure erase (migratebug) not flagged by the checkers")
		}
		if !strings.Contains(err.Error(), "killed with unscrubbed exclusive region") {
			t.Fatalf("wrong violation for seeded bug: %v", err)
		}
		if !leaked {
			t.Fatal("migratebug armed but the plaintext was erased — mutation not wired to the departure path")
		}
		return
	}
	if err != nil {
		t.Fatalf("clean departure flagged: %v", err)
	}
	if leaked {
		t.Fatal("departed tenant's plaintext survived a clean DepartKill")
	}
}
