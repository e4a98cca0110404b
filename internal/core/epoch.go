package core

// Epoch-based reclamation (EBR) for the monitor's destructive family.
//
// Revoke, KillDomain, ForceKill, containFault, and the ring drains
// never stall a reader: they follow the classic RCU discipline —
// publish, quiesce, reclaim:
//
//   - Publish. The destructive operation makes its change visible with
//     one serialized step that readers tolerate at either side of: the
//     domain's atomic death state, or the capability space's subtree
//     detach (cap.Space.Detach/DetachOwner, a short exclusive section
//     that takes the subtree out of the index while leaving the
//     parent's grant suspension in place).
//   - Quiesce. synchronize() advances the global epoch and waits until
//     every reader that entered before the publish has exited. Readers
//     declare themselves with pin/unpin (one CAS each) around their
//     monitor entry; they never block and never see the writer.
//   - Reclaim. Only after quiescence do the irreversible effects run:
//     cleanups, hardware resync, memory scrub, TLB shootdown, and —
//     through the deferred-free lists — recycling of the detached
//     capability records (cap.Space.Release + ReclaimOldest).
//
// The engine is wait-free for readers and carries a QSBR side channel:
// per-core epoch counters stamped at the scheduler's round barriers and
// at ring drains (the points where a core is provably outside any
// monitor entry). Deferred frees run only when both gates are open —
// no pin from an older epoch, and every online core stamped since the
// free was deferred.
//
// Simulated time is never touched: pins, epochs, and waits are host-
// side atomics and spins, so cycle histories stay bit-identical at any
// host thread count — the same contract the LockWait accounting obeys.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tyche-sim/tyche/internal/phys"
)

// epochSlots is the reader-slot count (power of two). Pins probe from a
// round-robin hint, so the array only needs to exceed the realistic
// number of simultaneous monitor entries; probing wraps and retries
// under oversubscription.
const epochSlots = 128

// epochMaxCores bounds the per-core QSBR counter array.
const epochMaxCores = 256

// epochPin is a reader's handle: the index of the slot it occupies.
type epochPin int32

// epochSlot is one padded reader slot. word is 0 when free, else
// (epoch<<1)|1 for the epoch the reader pinned at.
type epochSlot struct {
	word atomic.Uint64
	_    [7]uint64 // pad to a cache line: slots are CASed independently
}

// deferredBatch is one entry of the deferred-free list: fn must not run
// until every reader pinned at or before epoch has exited and every
// online core has stamped a newer epoch.
type deferredBatch struct {
	epoch uint64
	fn    func()
}

// epochEngine is the monitor's EBR instance.
type epochEngine struct {
	// global is the current epoch; synchronize is the only advancer.
	// Starts at 1 so a zero slot word is unambiguously "free".
	global atomic.Uint64
	slots  [epochSlots]epochSlot
	rr     atomic.Uint32

	// cores[i] is the epoch core i last stamped at a quiescent point
	// (round barrier, ring drain, run-loop boundary); online[i] gates
	// whether the core participates in deferred-free collection. Cores
	// that never run guest code stay offline and never block reclaim.
	cores  [epochMaxCores]atomic.Uint64
	online [epochMaxCores]atomic.Bool

	// deferMu guards the FIFO deferred-free list.
	deferMu sync.Mutex
	deferq  []deferredBatch

	// Observability counters (EpochStats).
	pins      atomic.Uint64
	syncs     atomic.Uint64
	combined  atomic.Uint64
	advances  atomic.Uint64
	deferred  atomic.Uint64
	reclaimed atomic.Uint64
}

func (e *epochEngine) init() {
	e.global.Store(1)
}

// pin enters a read-side critical section: claim a free slot with the
// current epoch. The CAS is sequentially consistent, so a synchronize
// that starts after the CAS observes the slot; a reader whose CAS lands
// after synchronize's publish reads post-publish state and is safe
// without being waited for.
func (e *epochEngine) pin() epochPin {
	word := e.global.Load()<<1 | 1
	i := int(e.rr.Add(1))
	for n := 0; ; n++ {
		idx := (i + n) % epochSlots
		if e.slots[idx].word.CompareAndSwap(0, word) {
			e.pins.Add(1)
			return epochPin(idx)
		}
		if n >= epochSlots {
			// Every slot busy: more simultaneous readers than slots.
			// Yield and retry — readers are short.
			runtime.Gosched()
			n = 0
			word = e.global.Load()<<1 | 1
		}
	}
}

// unpin exits the read-side critical section.
func (e *epochEngine) unpin(p epochPin) {
	e.slots[p].word.Store(0)
}

// pinned reports how many reader slots are currently occupied (tests).
func (e *epochEngine) pinned() int {
	n := 0
	for i := range e.slots {
		if e.slots[i].word.Load() != 0 {
			n++
		}
	}
	return n
}

// synchronize advances the global epoch and waits until every reader
// pinned at an older epoch has exited — the grace period. On return,
// every monitor entry that began before the caller's publish step has
// completed; entries that begin afterwards observe the published state.
// Callers (the destructive family) hold revMu, so at most one
// synchronize runs at a time; they must hold no leaf lock a pinned
// reader could block on.
//
// With the epochbug build tag the wait is compiled out — the seeded
// premature-reclaim bug the trace checker must catch (the PR-3
// tracebug pattern applied to reclamation).
func (e *epochEngine) synchronize() {
	target := e.global.Add(1)
	e.syncs.Add(1)
	if EpochBugArmed {
		return
	}
	for i := range e.slots {
		for {
			w := e.slots[i].word.Load()
			if w == 0 || w>>1 >= target {
				break
			}
			runtime.Gosched()
		}
	}
	e.collect()
}

// synchronizeShared is the grace combiner: one grace period for a
// batch of n publishes (a kill storm, a drain round), the n-1 folded-in
// requests accounted as combined syncs. Every caller holds revMu from
// its first publish to this wait, so no grace can have completed in
// between and the wait is never skipped.
func (e *epochEngine) synchronizeShared(n int) {
	e.synchronize()
	e.combined.Add(uint64(n - 1))
}

// quiesce stamps core as being at a quiescent point — outside any
// monitor entry — and tries to collect deferred frees. Called at
// scheduler round barriers, at ring drains, and at run-loop
// boundaries.
func (e *epochEngine) quiesce(core phys.CoreID) {
	if int(core) >= 0 && int(core) < epochMaxCores {
		e.cores[core].Store(e.global.Load())
		e.advances.Add(1)
	}
	e.collect()
}

// setOnline marks a core as participating (or not) in the QSBR gate.
// RunCore brackets guest execution with it.
func (e *epochEngine) setOnline(core phys.CoreID, on bool) {
	if int(core) < 0 || int(core) >= epochMaxCores {
		return
	}
	if on {
		e.cores[core].Store(e.global.Load())
	}
	e.online[core].Store(on)
}

// deferFree queues fn to run after the current epoch's readers have
// drained and every online core has stamped a newer epoch. FIFO order
// is preserved. With epochbug armed the deferral is skipped — fn runs
// immediately, before any grace period.
func (e *epochEngine) deferFree(fn func()) {
	e.deferred.Add(1)
	if EpochBugArmed {
		e.reclaimed.Add(1)
		fn()
		return
	}
	e.deferMu.Lock()
	e.deferq = append(e.deferq, deferredBatch{epoch: e.global.Load(), fn: fn})
	e.deferMu.Unlock()
}

// minObserved returns the oldest epoch any active reader or online core
// may still be at.
func (e *epochEngine) minObserved() uint64 {
	min := e.global.Load()
	for i := range e.slots {
		if w := e.slots[i].word.Load(); w != 0 {
			if ep := w >> 1; ep < min {
				min = ep
			}
		}
	}
	for i := range e.online {
		if e.online[i].Load() {
			if ep := e.cores[i].Load(); ep < min {
				min = ep
			}
		}
	}
	return min
}

// collect runs every deferred free whose grace period has elapsed:
// recorded at an epoch strictly older than anything still observed.
func (e *epochEngine) collect() {
	if e.deferred.Load() == e.reclaimed.Load() {
		return
	}
	min := e.minObserved()
	var run []deferredBatch
	e.deferMu.Lock()
	n := 0
	for _, b := range e.deferq {
		if b.epoch < min {
			n++
		} else {
			break // FIFO: later batches have equal or newer epochs
		}
	}
	if n > 0 {
		run = append(run, e.deferq[:n]...)
		e.deferq = append(e.deferq[:0], e.deferq[n:]...)
	}
	e.deferMu.Unlock()
	for _, b := range run {
		b.fn()
		e.reclaimed.Add(1)
	}
}

// EpochStats is an observability snapshot of the reclamation engine.
type EpochStats struct {
	Epoch         uint64 // current global epoch
	Pins          uint64 // read-side critical sections entered
	Pinned        int    // reader slots currently occupied
	Syncs         uint64 // grace periods (synchronize calls)
	CombinedSyncs uint64 // grace requests folded into a shared wait
	ElidedSyncs   uint64 // always 0: no wait is ever skipped (kept for benchmark/harness.go)
	Advances      uint64 // per-core quiescent-point stamps
	Deferred      uint64 // frees handed to the deferred lists
	Reclaimed     uint64 // frees that have run
}

// EpochStats returns the monitor's epoch-reclamation counters.
func (m *Monitor) EpochStats() EpochStats {
	// A free is counted deferred before it can be reclaimed, so reading
	// Reclaimed first keeps Reclaimed <= Deferred in a snapshot taken
	// while a revocation storm runs.
	reclaimed := m.ep.reclaimed.Load()
	return EpochStats{
		Epoch:         m.ep.global.Load(),
		Pins:          m.ep.pins.Load(),
		Pinned:        m.ep.pinned(),
		Syncs:         m.ep.syncs.Load(),
		CombinedSyncs: m.ep.combined.Load(),
		Advances:      m.ep.advances.Load(),
		Deferred:      m.ep.deferred.Load(),
		Reclaimed:     reclaimed,
	}
}

// renter brackets a reader monitor entry: an epoch pin and no lock.
// Everything the entry emits (trace events, counters) lands before
// rexit, so a destructive operation that publishes and synchronizes is
// ordered strictly after every entry that saw the pre-publish state —
// the property the trace checker's dead-domain-silence invariant rides
// on.
func (m *Monitor) renter() epochPin { return m.ep.pin() }

// rexit ends a reader entry started by renter.
func (m *Monitor) rexit(p epochPin) { m.ep.unpin(p) }

// denter brackets a destructive-family entry (revoke, kill,
// containment, ring drains): revMu serialises destructive operations
// against each other (single-writer EBR) and readers keep flowing.
// Destructive entries never pin: they are what synchronize waits *for
// readers on behalf of*, and pinning here would deadlock against their
// own grace period. revMu is the one top-level lock an entry can block
// on, so the time spent blocked here is what LockWait reports; the
// uncontended acquisition reads no clock.
func (m *Monitor) denter() {
	if !m.revMu.TryLock() {
		start := time.Now()
		m.revMu.Lock()
		m.revWaitNs.Add(time.Since(start).Nanoseconds())
	}
	m.revAcqs.Add(1)
}

// dexit ends a destructive-family entry.
func (m *Monitor) dexit() { m.revMu.Unlock() }
