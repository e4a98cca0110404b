package core

// Epoch-based reclamation (EBR) for the monitor's destructive family:
// readers pin, writers publish and wait, then reclaim.
//
// Revoke, KillDomain, ForceKill, containFault, and the ring drains
// never stall a reader:
//
//   - Publish. The destructive operation makes its change visible with
//     one serialized step that readers tolerate at either side of: the
//     domain's atomic death state, or the capability space's subtree
//     detach (cap.Space.Detach/DetachOwner, a short exclusive section
//     that takes the subtree out of the index while leaving the
//     parent's grant suspension in place).
//   - Wait. synchronize advances the global epoch and waits until
//     every reader that entered before the publishes has exited, one
//     wait for any number of them. Readers
//     declare themselves with pin/unpin (one CAS each) around their
//     monitor entry; they never block and never see the writer.
//   - Reclaim. Only after that grace period do the irreversible effects
//     run: cleanups, memory scrub, TLB shootdown, cap.Space.Release
//     (which drops the last reference to the detached capability
//     records) and the hardware resync.
//
// Reader pins are the only gate. Nothing is deferred past the
// destructive entry that published it: when the entry returns, the
// revocation is complete.
//
// Simulated time is never touched: pins, epochs, and waits are host-
// side atomics and spins, so cycle histories stay bit-identical at any
// host thread count — the same contract the LockWait accounting obeys.

import (
	"runtime"
	"sync/atomic"
	"time"
)

// epochSlots is the reader-slot count (power of two). Pins probe from a
// round-robin hint, so the array only needs to exceed the realistic
// number of simultaneous monitor entries; probing wraps and retries
// under oversubscription.
const epochSlots = 128

// epochPin is a reader's handle: the index of the slot it occupies.
type epochPin int32

// epochSlot is one padded reader slot. word is 0 when free, else
// (epoch<<1)|1 for the epoch the reader pinned at.
type epochSlot struct {
	word atomic.Uint64
	_    [7]uint64 // pad to a cache line: slots are CASed independently
}

// epochEngine is the monitor's EBR instance.
type epochEngine struct {
	// global is the current epoch; synchronize is the only advancer.
	// Starts at 1 so a zero slot word is unambiguously "free".
	global atomic.Uint64
	slots  [epochSlots]epochSlot
	rr     atomic.Uint32

	// Observability counters (EpochStats).
	pins     atomic.Uint64
	syncs    atomic.Uint64
	combined atomic.Uint64
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
// every monitor entry that began before the caller's publishes has
// completed; entries that begin afterwards observe the published state.
// It is the one grace entry of the destructive family: one wait covers
// the n publishes the caller stacked up (a revocation, a kill storm, a
// drain round), and the n-1 folded-in requests are counted as combined
// syncs. Callers hold revMu from their first publish to this wait, so at
// most one synchronize runs at a time and no grace can have completed
// in between; they must hold no leaf lock a pinned reader could block
// on.
//
// With the epochbug build tag the wait is compiled out — the seeded
// premature-reclaim bug the trace checker must catch (the PR-3
// tracebug pattern applied to reclamation).
func (e *epochEngine) synchronize(n int) {
	target := e.global.Add(1)
	e.syncs.Add(1)
	e.combined.Add(uint64(n - 1))
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
}

// EpochStats is an observability snapshot of the reclamation engine.
type EpochStats struct {
	Epoch         uint64 // current global epoch
	Pins          uint64 // read-side critical sections entered
	Pinned        int    // reader slots currently occupied
	Syncs         uint64 // grace periods (synchronize calls)
	CombinedSyncs uint64 // grace requests folded into a shared wait
	ElidedSyncs   uint64 // always 0: no wait is ever skipped (kept for benchmark/ until queue (iv))
}

// EpochStats returns the monitor's epoch-reclamation counters.
func (m *Monitor) EpochStats() EpochStats {
	return EpochStats{
		Epoch:         m.ep.global.Load(),
		Pins:          m.ep.pins.Load(),
		Pinned:        m.ep.pinned(),
		Syncs:         m.ep.syncs.Load(),
		CombinedSyncs: m.ep.combined.Load(),
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
