package core

// Tests for the epoch-based reclamation engine (epoch.go) and its
// integration with the destructive family. Three layers:
//
//   - Engine-level unit tests: synchronize genuinely waits for pinned
//     readers, and for exactly those pinned before it began — also when
//     every one of the 128 slots is held.
//   - Monitor-level tests: every destructive entry completes its
//     revocation before it returns — no capability record is left
//     detached-and-unreleased, with no further grace period needed.
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
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/fault"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

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
		e.synchronize(1)
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

// TestEpochPinSlotsExhausted: the one limit the gate has. With all 128
// slots held a further pin waits — it does not return, fail or steal a
// slot — until one unpin; and a synchronize begun while all 128 are
// held waits for exactly those, not for pins taken after it began.
func TestEpochPinSlotsExhausted(t *testing.T) {
	if EpochBugArmed {
		t.Skip("epochbug build compiles the grace period out by design")
	}
	var e epochEngine
	e.init()
	var held [epochSlots]epochPin
	for i := range held {
		held[i] = e.pin()
	}
	if got := e.pinned(); got != epochSlots {
		t.Fatalf("%d slots occupied after %d pins", got, epochSlots)
	}
	synced := make(chan struct{})
	go func() {
		e.synchronize(1)
		close(synced)
	}()
	// The synchronize has begun once the epoch moved; the pin that
	// starts now is one it must not wait for.
	for e.global.Load() == 1 {
		runtime.Gosched()
	}
	extra := make(chan epochPin)
	go func() { extra <- e.pin() }()
	select {
	case p := <-extra:
		t.Fatalf("pin %d returned slot %d with every slot held", epochSlots+1, p)
	case <-synced:
		t.Fatal("synchronize returned with every slot held")
	case <-time.After(20 * time.Millisecond):
	}
	if got := e.pinned(); got != epochSlots {
		t.Fatalf("%d slots occupied while the extra pin waits", got)
	}
	// One unpin: the waiting pin lands in the slot freed for it, and is
	// still held when the last pre-existing pin goes.
	e.unpin(held[0])
	var late epochPin
	select {
	case late = <-extra:
	case <-time.After(5 * time.Second):
		t.Fatal("the waiting pin did not get the freed slot")
	}
	if late != held[0] {
		t.Fatalf("the waiting pin took slot %d, only slot %d was free", late, held[0])
	}
	for _, p := range held[1 : epochSlots-1] {
		e.unpin(p)
	}
	select {
	case <-synced:
		t.Fatal("synchronize returned before the last pre-existing pin was released")
	case <-time.After(20 * time.Millisecond):
	}
	e.unpin(held[epochSlots-1])
	select {
	case <-synced:
	case <-time.After(5 * time.Second):
		t.Fatal("synchronize waited for a pin taken after it began")
	}
	e.unpin(late)
	if got := e.pinned(); got != 0 {
		t.Fatalf("%d slots still occupied at the end", got)
	}
}

// TestEpochReclaimAfterRevoke: a destructive entry finishes what it
// publishes. When it returns — after its one grace period, with no
// further synchronize — no capability record is detached and
// unreleased, and the index is back at what it held before the victim
// was built.
func TestEpochReclaimAfterRevoke(t *testing.T) {
	// tenant is a fresh domain holding one flush-on-revoke page of
	// dom0's.
	tenant := func(t *testing.T, m *Monitor, page uint64) (DomainID, cap.NodeID) {
		t.Helper()
		dom, err := m.CreateDomain(InitialDomain, "limbo")
		if err != nil {
			t.Fatal(err)
		}
		id, err := m.Share(InitialDomain, dom0MemNode(t, m), dom, memRes(page, 1), cap.MemRW, cap.CleanFlushTLB)
		if err != nil {
			t.Fatal(err)
		}
		return dom, id
	}
	// queued puts two such revocations on a ring of dom0's.
	queued := func(t *testing.T, m *Monitor) {
		t.Helper()
		base := ringAt(t, m, InitialDomain, 8, 8)
		for _, page := range []uint64{160, 162} {
			_, id := tenant(t, m, page)
			enqueue(t, m, base, 8, CallRevoke, uint64(id))
		}
	}
	kill := func(fn func(*Monitor, DomainID) error) func(*testing.T, *Monitor) func() error {
		return func(t *testing.T, m *Monitor) func() error {
			dom, _ := tenant(t, m, 160)
			return func() error { return fn(m, dom) }
		}
	}
	for _, tc := range []struct {
		name string
		// arm builds what the entry destroys and returns the entry.
		arm func(t *testing.T, m *Monitor) func() error
	}{
		{"Revoke", func(t *testing.T, m *Monitor) func() error {
			_, id := tenant(t, m, 160)
			return func() error { return m.Revoke(InitialDomain, id) }
		}},
		{"KillDomain", kill(func(m *Monitor, d DomainID) error { return m.KillDomain(InitialDomain, d) })},
		{"ForceKill", kill((*Monitor).ForceKill)},
		{"DepartKill", kill((*Monitor).DepartKill)},
		{"ForceKillAll", func(t *testing.T, m *Monitor) func() error {
			a, _ := tenant(t, m, 160)
			b, _ := tenant(t, m, 162)
			return func() error {
				n, err := m.ForceKillAll(a, b)
				if n != 2 {
					return fmt.Errorf("ForceKillAll killed %d of 2 (%v)", n, err)
				}
				return err
			}
		}},
		{"RingFlush", func(t *testing.T, m *Monitor) func() error {
			queued(t, m)
			return func() error {
				n, err := m.RingFlush(InitialDomain)
				if n != 2 {
					return fmt.Errorf("RingFlush ran %d of 2 descriptors (%v)", n, err)
				}
				return err
			}
		}},
		{"DrainRings", func(t *testing.T, m *Monitor) func() error {
			queued(t, m)
			return func() error {
				if n := m.DrainRings(); n != 2 {
					return fmt.Errorf("DrainRings ran %d of 2 descriptors", n)
				}
				return nil
			}
		}},
		{"machine check", func(t *testing.T, m *Monitor) func() error {
			victim := buildVictim(t, m)
			if err := m.Launch(victim, 1); err != nil {
				t.Fatal(err)
			}
			sched, err := fault.ParseSchedule("mc1@100")
			if err != nil {
				t.Fatal(err)
			}
			fault.NewInjector(sched...).Arm(m.Machine(), nil)
			return func() error {
				res, err := m.RunCores(100_000, 1)
				if err == nil && res[1].Trap.Kind != hw.TrapMachineCheck {
					err = fmt.Errorf("victim trap = %v, want machine-check", res[1].Trap)
				}
				return err
			}
		}},
	} {
		for _, kind := range []BackendKind{BackendVTX, BackendPMP} {
			t.Run(tc.name+"/"+string(kind), func(t *testing.T) {
				m := bootWorld(t, kind)
				baseline := m.space.NumNodes()
				entry := tc.arm(t, m)
				if m.space.NumNodes() <= baseline {
					t.Fatal("nothing was built for the entry to revoke")
				}
				syncs := m.EpochStats().Syncs
				if err := entry(); err != nil {
					t.Fatal(err)
				}
				if limbo, nodes := m.space.LimboNodes(), m.space.NumNodes(); limbo != 0 || nodes != baseline {
					t.Fatalf("on return %d records in limbo and %d indexed, want 0 and %d", limbo, nodes, baseline)
				}
				if got := m.EpochStats().Syncs - syncs; got != 1 {
					t.Fatalf("the entry waited out %d grace periods, want 1", got)
				}
			})
		}
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
	m, ck, tr := bootDualTracedWorld(t, BackendVTX)
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

	err = assertCheckersAgree(t, ck, tr)
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
			var lastRevs, lastEpoch uint64
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
				if es.Epoch < lastEpoch {
					readerErr <- fmt.Errorf("epoch went backwards: %d -> %d", lastEpoch, es.Epoch)
					return
				}
				lastEpoch = es.Epoch
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

	// Every entry has returned: nothing the storm detached is still
	// unreleased, and the hammered regions are exclusive to dom0 again.
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
