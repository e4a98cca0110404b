package core

// The drain round: publish → shared grace → retire, the only way the
// monitor drains rings. The journal version of the paper (arXiv
// 2507.12364) frames the monitor as cloud-scale trust infrastructure —
// reclamation throughput must scale with cores rather than serialise
// behind one — and Sanctorum (arXiv 1812.10605) wants the monitor
// small, so there is one drain, and the synchronous Revoke
// (monitor.go) is the same publish and the same retire around a grace
// period of its own.
//
// A round runs entirely inside one denter()/dexit():
//
//	Publish: every ring of the round is drained by drainRing (ring.go)
//	  — per-ring KBatchBegin/KBatchEnd frames, pre-validated access,
//	  per-descriptor revalidation, abort on footprint loss.
//	  Non-destructive descriptors (share, grant, attest, ...) execute
//	  in full, the same way the public API runs them from reader
//	  entries; a CallRevoke descriptor only publishes (authorise +
//	  cap.Space.Detach + KRevoke). Rings whose footprints do not
//	  overlap, directly or through other rings, share no memory, so the
//	  round partitions its rings into the connected components of the
//	  overlap relation and drains the components on
//	  min(components, runtime.GOMAXPROCS(0)) host threads. The fan-out
//	  is derived, never configured, and nothing observable depends on
//	  it: simulated cycles are sums on an atomic clock, Stats() are
//	  atomic counters, completions are ring-local, and the retire step
//	  below runs in (ring, descriptor) order on the coordinator. (One
//	  caveat: capability node IDs come from one counter, so when two
//	  components both delegate in the same round, which of them gets
//	  which fresh ID follows the host schedule.) A single component —
//	  every doorbell — runs inline on the caller's goroutine.
//	Retire: after the join, ONE shared grace period covers every
//	  publish of the round (epoch.synchronizeShared — the grace
//	  combiner), then Monitor.retire runs the deferred tails with the
//	  machine's shootdown accumulator armed and one hardware resync, so
//	  the whole round retires at most one cross-core shootdown round
//	  (trace.KDrainBegin/KDrainEnd bracket it; the checker's property 6
//	  enforces the coalescing).
//
// Why deferring a revocation's tail is sound: Detach is the publish —
// readers stop seeing the subtree, and the parents' grant suspensions
// persist until Release — so nothing irreversible happens before the
// shared grace. The visible consequence is the batch window: a
// parent's access returns when the round retires, not between two
// descriptors of the same batch, so re-delegating a page in the batch
// that revokes it is denied and succeeds on the next flush.

import (
	"runtime"
	"sync"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/trace"
)

// noteDrainError surfaces a drain failure no caller is there to take:
// counted in Stats().RingDrainErrors, first occurrence latched for
// FirstDrainError.
func (m *Monitor) noteDrainError(err error) {
	if err == nil {
		return
	}
	m.stats.ringDrainErrors.Add(1)
	m.drainErrMu.Lock()
	if m.firstDrainErr == nil {
		m.firstDrainErr = err
	}
	m.drainErrMu.Unlock()
}

// FirstDrainError returns the first drain failure latched by a barrier
// drain or by a round's retire step (nil if none). The counterpart
// counter is Stats().RingDrainErrors.
func (m *Monitor) FirstDrainError() error {
	m.drainErrMu.Lock()
	defer m.drainErrMu.Unlock()
	return m.firstDrainErr
}

// drainRound drains rings — live, registered, in ascending owner order
// — as one round (destructive-family entry held; trace frames on core).
// It returns the descriptors executed and the retire step's failure,
// which it also latches; each ring's own count and failure are left in
// r.n and r.err.
func (m *Monitor) drainRound(core int32, rings []*domainRing) (uint64, error) {
	tok := m.opTok.Add(1)
	m.mach.Trace(core, trace.KDrainBegin, 0, uint64(len(rings)), tok, 0, 0)

	shards := overlapShards(rings)
	if workers := min(len(shards), runtime.GOMAXPROCS(0)); workers > 1 {
		// The workers run strictly inside the coordinator's revMu
		// section (spawned after it is taken, joined before it drops) on
		// the same footing as concurrent reader entries: leaf locks and
		// the internally-synchronised capability space only.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s := w; s < len(shards); s += workers {
					for _, r := range shards[s] {
						r.n, r.err = m.drainRing(r, core)
					}
				}
			}()
		}
		wg.Wait()
	} else {
		for _, r := range rings {
			r.n, r.err = m.drainRing(r, core)
		}
	}

	var total uint64
	var dets []*cap.Detached
	for _, r := range rings {
		total += r.n
		dets = append(dets, r.pend...)
		clear(r.pend)
		r.pend = r.pend[:0]
	}
	var err error
	if len(dets) > 0 {
		m.ep.synchronizeShared(len(dets))
		err = m.retire(true, dets...)
		m.noteDrainError(err)
	}
	m.mach.Trace(core, trace.KDrainEnd, 0, total, tok, 0, 0)
	return total, err
}

// overlapShards partitions rings into the connected components of the
// footprint-overlap relation, keeping ring order within and between
// components: two rings land in different shards only if no chain of
// overlapping footprints joins them, so no two shards ever touch the
// same memory. A lone ring (every doorbell) is not partitioned: nil.
func overlapShards(rings []*domainRing) [][]*domainRing {
	if len(rings) < 2 {
		return nil
	}
	// comp[i] is the lowest index in ring i's component.
	comp := make([]int, len(rings))
	for i, r := range rings {
		comp[i] = i
		for j := 0; j < i; j++ {
			from, to := comp[i], comp[j]
			if from == to || !rings[j].region.Overlaps(r.region) {
				continue
			}
			if from < to {
				from, to = to, from
			}
			for k := 0; k <= i; k++ {
				if comp[k] == from {
					comp[k] = to
				}
			}
		}
	}
	var shards [][]*domainRing
	shardOf := make([]int, len(rings))
	for i, r := range rings {
		if comp[i] == i {
			shardOf[i] = len(shards)
			shards = append(shards, nil)
		}
		s := shardOf[comp[i]]
		shards[s] = append(shards[s], r)
	}
	return shards
}
