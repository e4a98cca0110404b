package core

// The drain round: publish → retire, the only way the monitor drains
// rings. The journal version of the paper (arXiv 2507.12364) keeps the
// monitor the one enforcement point every policy goes through and
// Sanctorum (arXiv 1812.10605) wants it small, so there is one drain,
// and the synchronous Revoke (monitor.go) is the same publish and the
// same retire.
//
//	Publish: every ring of the round is drained by drainRing (ring.go),
//	  in ascending owner order — per-ring KBatchBegin/KBatchEnd frames,
//	  pre-validated access, per-descriptor revalidation, abort on
//	  footprint loss. Non-destructive descriptors (share, grant,
//	  attest, ...) execute in full, the same way the public API runs
//	  them; a CallRevoke descriptor only publishes (authorise +
//	  cap.Space.Detach + KRevoke). The order is the round's whole
//	  schedule, so a round is reproducible down to the capability node
//	  IDs it hands out: (owner, descriptor) order.
//	Retire: Monitor.retire runs the deferred tails with the machine's
//	  shootdown accumulator armed and one hardware resync, so the whole
//	  round retires at most one cross-core shootdown round
//	  (trace.KDrainBegin/KDrainEnd bracket it; the checker's property 6
//	  enforces the coalescing).
//
// Why deferring a revocation's tail is sound: Detach is the publish —
// queries stop seeing the subtree, and the parents' grant suspensions
// persist until Release — so nothing irreversible happens before the
// retire. The visible consequence is the batch window: a parent's
// access returns when the round retires, not between two descriptors
// of the same batch, so re-delegating a page in the batch that revokes
// it is denied and succeeds on the next flush.

import (
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
	m.stats.RingDrainErrors++
	if m.firstDrainErr == nil {
		m.firstDrainErr = err
	}
}

// FirstDrainError returns the first drain failure latched by a barrier
// drain or by a round's retire step (nil if none). The counterpart
// counter is Stats().RingDrainErrors.
func (m *Monitor) FirstDrainError() error { return m.firstDrainErr }

// drainRound drains rings — live, registered, in ascending owner order
// — as one round (trace frames on core).
// It returns the descriptors executed and the retire step's failure,
// which it also latches; each ring's own failure is left in r.err.
func (m *Monitor) drainRound(core int32, rings []*domainRing) (uint64, error) {
	tok := m.newTok()
	m.mach.Trace(core, trace.KDrainBegin, 0, uint64(len(rings)), tok, 0, 0)

	var total uint64
	var dets []*cap.Detached
	for _, r := range rings {
		var n uint64
		n, r.err = m.drainRing(r, core)
		total += n
		dets = append(dets, r.pend...)
		clear(r.pend)
		r.pend = r.pend[:0]
	}
	var err error
	if len(dets) > 0 {
		err = m.retire(true, dets...)
		m.noteDrainError(err)
	}
	m.mach.Trace(core, trace.KDrainEnd, 0, total, tok, 0, 0)
	return total, err
}
