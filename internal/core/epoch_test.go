package core

// Tests for the epoch-based reclamation engine (epoch.go) and its
// integration with the destructive family. Three layers:
//
//   - Engine-level unit tests: deferred frees never run before
//     quiescence, FIFO order holds, the QSBR core gate participates,
//     and synchronize genuinely waits for pinned readers.
//   - Monitor-level tests: the per-core counters advance at the
//     scheduler's round barriers and at ring-drain doorbells, and limbo
//     capability records drain back to zero after revocations.
//   - The mutation oracle: with the epochbug build tag the grace period
//     is compiled out, and the trace checker must flag the resulting
//     premature reclaim (a reader's event landing after its domain's
//     KKill) — proof the linearizability harness has teeth.
//
// The concurrency stress test at the bottom is the linearizability
// harness itself: lock-free readers race revoke/kill storms; run it
// under -race (the CI race and epoch jobs do).

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/sched"
)

// TestEpochEngineDeferGating: a deferred free must not run while any
// reader is pinned at or before the epoch it was recorded in, and
// batches run in FIFO order once quiescence opens.
func TestEpochEngineDeferGating(t *testing.T) {
	if EpochBugArmed {
		t.Skip("epochbug build compiles the grace period out by design")
	}
	var e epochEngine
	e.init()

	p := e.pin()
	var order []int
	e.deferFree(func() { order = append(order, 1) })
	e.deferFree(func() { order = append(order, 2) })

	// A quiescent stamp from an offline core must not reclaim anything
	// while the pin is held.
	e.quiesce(0)
	if got := e.reclaimed.Load(); got != 0 {
		t.Fatalf("reclaimed %d frees under an active pin", got)
	}
	e.unpin(p)
	e.synchronize()
	if got := e.reclaimed.Load(); got != 2 {
		t.Fatalf("reclaimed = %d after quiescence, want 2", got)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("deferred frees ran out of FIFO order: %v", order)
	}
}

// TestEpochEngineCoreGating: an online core that has not stamped a
// quiescent point since the free was deferred blocks reclamation — the
// QSBR side channel is a real gate, not advisory.
func TestEpochEngineCoreGating(t *testing.T) {
	if EpochBugArmed {
		t.Skip("epochbug build compiles the grace period out by design")
	}
	var e epochEngine
	e.init()
	e.setOnline(3, true)

	ran := atomic.Bool{}
	e.deferFree(func() { ran.Store(true) })
	// No pins, but core 3 is online and stamped at the deferral epoch:
	// two grace periods must still not reclaim.
	e.synchronize()
	e.synchronize()
	if ran.Load() {
		t.Fatal("deferred free ran before the online core quiesced")
	}
	e.quiesce(3)
	if !ran.Load() {
		t.Fatal("deferred free did not run after the last core quiesced")
	}
	e.setOnline(3, false)
}

// TestEpochSynchronizeWaitsForReader: synchronize must not return while
// a reader pinned before it remains pinned.
func TestEpochSynchronizeWaitsForReader(t *testing.T) {
	if EpochBugArmed {
		t.Skip("epochbug build compiles the grace period out by design")
	}
	var e epochEngine
	e.init()

	p := e.pin()
	done := make(chan struct{})
	go func() {
		e.synchronize()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("synchronize returned while a reader was pinned")
	case <-time.After(20 * time.Millisecond):
	}
	e.unpin(p)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("synchronize did not return after the reader unpinned")
	}
}

// TestEpochQuiescentPointsAdvance: the per-core QSBR counters are
// stamped at the two places the tentpole names — the multi-tenant
// scheduler's round barriers and the ring-drain doorbell
// (CallRingFlush) — so deferred reclamation makes progress even when no
// further revocation ever calls synchronize.
func TestEpochQuiescentPointsAdvance(t *testing.T) {
	m := bootWorld(t, BackendVTX)

	// Ring-drain doorbell: an on-core flush stamps the executing core.
	base := phys.Addr(8 * pg)
	if err := m.RingSetup(InitialDomain, base, 8); err != nil {
		t.Fatal(err)
	}
	before := m.EpochStats().Advances
	if _, err := m.ringFlush(InitialDomain, 0); err != nil {
		t.Fatal(err)
	}
	if got := m.EpochStats().Advances; got <= before {
		t.Fatalf("ring-drain doorbell did not stamp a quiescent point (advances %d -> %d)", before, got)
	}

	// Scheduler round barriers: a short multi-tenant run stamps every
	// participating core at least once per round.
	m.SetSchedPolicy(&sched.Policy{Quantum: 16})
	id := loadTenant(t, m, "epoch-tenant", 64, 8, true, []phys.CoreID{0, 1})
	if err := m.Schedule(id); err != nil {
		t.Fatal(err)
	}
	before = m.EpochStats().Advances
	if _, err := m.RunCores(100_000); err != nil {
		t.Fatal(err)
	}
	if got := m.EpochStats().Advances; got <= before {
		t.Fatalf("scheduled round barriers did not stamp quiescent points (advances %d -> %d)", before, got)
	}
}

// TestEpochReclaimAfterRevoke: detached capability records sit in limbo
// until a full grace period elapses, then every deferred free runs —
// nothing leaks and nothing reclaims early.
func TestEpochReclaimAfterRevoke(t *testing.T) {
	if EpochBugArmed {
		t.Skip("epochbug reclaims immediately by design")
	}
	m := bootWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	dom, err := m.CreateDomain(InitialDomain, "limbo")
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Share(InitialDomain, node, dom, memRes(160, 1), cap.MemRW, cap.CleanFlushTLB)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Revoke(InitialDomain, id); err != nil {
		t.Fatal(err)
	}
	// The revoke deferred its subtree's reclamation at the post-sync
	// epoch: it cannot have run inside its own grace period.
	if got := m.space.LimboNodes(); got == 0 {
		t.Fatal("revoked subtree reclaimed inside its own operation")
	}
	st := m.EpochStats()
	if st.Deferred == 0 || st.Reclaimed >= st.Deferred {
		t.Fatalf("epoch stats inconsistent after revoke: %+v", st)
	}
	// Two explicit grace periods retire the pending batch.
	m.ep.synchronize()
	m.ep.synchronize()
	if got := m.space.LimboNodes(); got != 0 {
		t.Fatalf("%d capability records still in limbo after quiescence", got)
	}
	st = m.EpochStats()
	if st.Reclaimed != st.Deferred {
		t.Fatalf("reclaimed %d of %d deferred frees after quiescence", st.Reclaimed, st.Deferred)
	}
}

// TestEpochMutationOracle is the mutation test for the reclamation
// scheme: under the epochbug build tag synchronize skips its wait (a
// seeded premature reclaim, the PR-3 tracebug pattern applied to EBR),
// and the trace checker must flag it. The scenario parks a delegation
// by the victim mid-operation — capability mutated, trace event not yet
// emitted, epoch pin held — while a ForceKill runs against it:
//
//   - Correct engine: the kill's grace period waits for the parked
//     entry, so its KShare lands before the KKill and the trace is
//     clean.
//   - epochbug: the kill completes through the open pin; the parked
//     entry then emits KShare for a domain the trace already killed —
//     a dead-domain-silence violation the checker must catch.
func TestEpochMutationOracle(t *testing.T) {
	skipUnlessOnlyMutation(t, EpochBugArmed)
	m, ck, sh := bootDualTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	victim, err := m.CreateDomain(InitialDomain, "victim")
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Share(InitialDomain, node, victim, memRes(170, 2), cap.MemRW|cap.RightShare, cap.CleanFlushTLB)
	if err != nil {
		t.Fatal(err)
	}

	parked := make(chan struct{})
	release := make(chan struct{})
	m.hookDelegatePreEmit = func(DomainID) {
		close(parked)
		<-release
	}
	shareErr := make(chan error, 1)
	go func() {
		_, err := m.Share(victim, a, InitialDomain, memRes(170, 1), cap.MemRW, cap.CleanNone)
		shareErr <- err
	}()
	<-parked
	killErr := make(chan error, 1)
	go func() { killErr <- m.ForceKill(victim) }()
	// Give the kill time to publish death and enter (or, with epochbug,
	// charge straight through) its grace period before unparking.
	time.Sleep(30 * time.Millisecond)
	close(release)
	if err := <-killErr; err != nil {
		t.Fatalf("ForceKill: %v", err)
	}
	// With the bug armed the kill reclaims straight through the open
	// pin, so the parked entry's hardware resync may find its domain
	// already gone — part of the blast the checker must flag (the
	// KShare violation has landed by then regardless).
	if err := <-shareErr; err != nil && !EpochBugArmed {
		t.Fatalf("parked share: %v", err)
	}
	m.hookDelegatePreEmit = nil

	err = assertCheckersAgree(t, ck, sh)
	if EpochBugArmed {
		if err == nil {
			t.Fatal("seeded premature reclaim (epochbug) not flagged by the checker")
		}
		return
	}
	if err != nil {
		t.Fatalf("clean kill-vs-delegation race flagged: %v", err)
	}
}

// TestEpochLinearizableRevokeStorm is the linearizability harness:
// reader goroutines run lock-free monitor entries (access checks,
// attestation, stats, enumeration) while workers storm the destructive
// family with revoke and kill cycles over two-level capability
// subtrees. The readers assert that no half-detached subtree is ever
// observable and that unrelated domains never flicker; each worker
// asserts the linearization point — when a revoke or kill returns, the
// whole subtree is gone. The trace oracle then replays the run against
// the dead-domain-silence and scrub ordering invariants.
func TestEpochLinearizableRevokeStorm(t *testing.T) {
	m, ck := bootTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	const workers = 4
	iters := 24
	if testing.Short() {
		iters = 6
	}
	// The nightly full-churn soak leg raises the budget far beyond the
	// per-push run (see .github/workflows/nightly.yml).
	if v := os.Getenv("EPOCH_STORM_ITERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("invalid EPOCH_STORM_ITERS=%q", v)
		}
		iters = n
	}

	// A bystander with a stable mapping: storms on unrelated subtrees
	// must never disturb it, not even transiently.
	bystander, err := m.CreateDomain(InitialDomain, "bystander")
	if err != nil {
		t.Fatal(err)
	}
	byRegion := phys.MakeRegion(phys.Addr(400*pg), pg)
	if _, err := m.Share(InitialDomain, node, bystander, cap.MemResource(byRegion), cap.MemRW, cap.CleanNone); err != nil {
		t.Fatal(err)
	}

	// Long-lived per-worker "cell" domains receive the second level of
	// each victim subtree, so every revoke cascades across owners.
	var cells [workers]DomainID
	for i := range cells {
		cells[i], err = m.CreateDomain(InitialDomain, fmt.Sprintf("cell%d", i))
		if err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var rwg sync.WaitGroup
	readerErr := make(chan error, 8)
	for r := 0; r < 3; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			var lastRevs uint64
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if !m.CheckAccess(InitialDomain, 0, cap.MemRWX) {
					readerErr <- fmt.Errorf("dom0 lost its root capability mid-storm")
					return
				}
				if !m.CheckAccess(bystander, byRegion.Start, cap.MemRW) {
					readerErr <- fmt.Errorf("bystander access flickered mid-storm")
					return
				}
				st := m.Stats()
				if st.Revocations < lastRevs {
					readerErr <- fmt.Errorf("revocation counter went backwards: %d -> %d", lastRevs, st.Revocations)
					return
				}
				lastRevs = st.Revocations
				es := m.EpochStats()
				if es.Reclaimed > es.Deferred {
					readerErr <- fmt.Errorf("reclaimed %d > deferred %d", es.Reclaimed, es.Deferred)
					return
				}
				if _, err := m.Enumerate(InitialDomain); err != nil {
					readerErr <- fmt.Errorf("enumerate dom0: %v", err)
					return
				}
				if n%8 == r {
					if _, err := m.Attest(bystander, []byte{byte(n)}); err != nil {
						readerErr <- fmt.Errorf("bystander attest failed mid-storm: %v", err)
						return
					}
				}
			}
		}(r)
	}

	var wg sync.WaitGroup
	workerErr := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			region := phys.MakeRegion(phys.Addr(uint64(300+4*i)*pg), 2*pg)
			sub := phys.MakeRegion(region.Start+pg, pg)
			for n := 0; n < iters; n++ {
				v, err := m.CreateDomain(InitialDomain, fmt.Sprintf("victim%d-%d", i, n))
				if err != nil {
					workerErr <- err
					return
				}
				a, err := m.Share(InitialDomain, node, v, cap.MemResource(region), cap.MemRW|cap.RightShare, cap.CleanFlushTLB)
				if err != nil {
					workerErr <- err
					return
				}
				if _, err := m.Share(v, a, cells[i], cap.MemResource(sub), cap.MemRW, cap.CleanFlushTLB); err != nil {
					workerErr <- err
					return
				}
				if !m.CheckAccess(cells[i], sub.Start, cap.MemRW) {
					workerErr <- fmt.Errorf("worker %d: cell lost access before revoke", i)
					return
				}
				if n%2 == 0 {
					err = m.Revoke(InitialDomain, a)
				} else {
					err = m.KillDomain(InitialDomain, v)
				}
				if err != nil {
					workerErr <- err
					return
				}
				// Linearization point: the revoke/kill has returned, so
				// the whole two-level subtree must be invisible — a
				// surviving second-level grant would be a half-detached
				// subtree.
				if m.CheckAccess(v, region.Start, cap.MemRW) {
					workerErr <- fmt.Errorf("worker %d iter %d: victim retains access after teardown returned", i, n)
					return
				}
				if m.CheckAccess(cells[i], sub.Start, cap.MemRW) {
					workerErr <- fmt.Errorf("worker %d iter %d: half-detached subtree (cell retains cascaded grant)", i, n)
					return
				}
				if n%2 == 1 {
					if nodes := m.OwnerNodes(v); len(nodes) != 0 {
						workerErr <- fmt.Errorf("worker %d iter %d: killed domain still owns %d nodes", i, n, len(nodes))
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	close(workerErr)
	close(readerErr)
	for err := range workerErr {
		t.Fatal(err)
	}
	for err := range readerErr {
		t.Fatal(err)
	}

	// Quiesce twice: everything the storm deferred must reclaim, and
	// the hammered regions must be exclusive to dom0 again.
	m.ep.synchronize()
	m.ep.synchronize()
	if got := m.space.LimboNodes(); got != 0 {
		t.Fatalf("%d capability records leaked in limbo after the storm", got)
	}
	for _, rc := range m.RefCounts() {
		for i := 0; i < workers; i++ {
			region := phys.MakeRegion(phys.Addr(uint64(300+4*i)*pg), 2*pg)
			if rc.Region.Overlaps(region) && rc.Count != 1 {
				t.Fatalf("region %v refcount = %d after storm", rc.Region, rc.Count)
			}
		}
	}
	assertTraceClean(t, m, ck)
}
