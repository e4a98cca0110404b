package core

// Asynchronous batched ABI: an io_uring-style submission/completion
// ring per domain. A guest enqueues VMCall descriptors into a ring in
// its own memory with plain stores — no trap per operation — and the
// monitor drains the ring in one batch, either when the guest rings
// the doorbell (CallRingFlush, one trap amortised over the whole
// batch) or at a scheduler's round barriers (DrainRings), where all
// cores are quiescent anyway. The HotOS paper's pitch is that trust
// management must be cheap enough to use everywhere; the journal
// version (arXiv 2507.12364) makes low-cost composable monitor calls
// the foundation, and Sanctorum (arXiv 1812.10605) demands a minimal
// per-call monitor footprint. Batching amortises the footprint that
// cannot be eliminated: one VM exit, one hardware resync and — the big
// win — ONE cross-core TLB
// shootdown round per batch of revocations instead of one per
// revocation (hw.BeginShootdownBatch).
//
// Ring memory layout (all fields 64-bit little-endian words, base must
// be within memory the ring owner holds read+write):
//
//	+0x00  header (RingHeaderBytes):
//	       [0] entries   — capacity, written by the monitor at setup
//	       [1] sqTail    — free-running submit counter, guest-written
//	       [2] sqHead    — free-running consume counter, monitor-written
//	       [3] cqTail    — free-running completion counter, monitor-written
//	       [4..7]        — reserved
//	+0x40  entries × RingDescBytes submission descriptors:
//	       [0] verb (the ABI call number), [1..5] args r1..r5,
//	       [6..7] reserved
//	+0x40 + entries*0x40  entries × RingCQBytes completion entries:
//	       [0] status (the ABI status codes), [1] result (r1)
//
// Descriptor i's completion is posted at slot i%entries — submission
// and completion indices advance in lockstep, so the guest correlates
// by position. Indices are free-running (never wrap); slot = i % entries.
// The monitor trusts only sqTail from guest memory: the consume index
// is kept monitor-side and mirrored out for the guest's benefit.
//
// Trust and validation. Ring setup capability-checks the whole
// footprint for read+write and records the
// capability-space generation; a drain revalidates only when the
// generation moved. Because a batch can itself revoke the ring's
// backing memory (or grant it away), the drain rechecks after every
// executed descriptor that bumped the generation, and aborts the batch
// (dropping the registration and the remaining descriptors) the moment
// the owner loses access — the monitor never writes a completion into
// memory the owner no longer holds.
//
// Every drain is a round (drain.go): this file reads descriptors and
// executes them — a CallRevoke only publishes — and the round's tail
// retires what the batch published.

import (
	"cmp"
	"slices"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// Ring layout constants (bytes).
const (
	// RingHeaderBytes is the size of the ring header.
	RingHeaderBytes = 64
	// RingDescBytes is the size of one submission descriptor.
	RingDescBytes = 64
	// RingCQBytes is the size of one completion entry.
	RingCQBytes = 16
	// MaxRingEntries bounds a ring's capacity.
	MaxRingEntries = 4096
)

// Header word offsets (bytes from ring base).
const (
	RingOffEntries = 0
	RingOffSQTail  = 8
	RingOffSQHead  = 16
	RingOffCQTail  = 24
)

// RingBytes returns the total footprint of a ring with the given
// capacity.
func RingBytes(entries uint64) uint64 {
	return RingHeaderBytes + entries*(RingDescBytes+RingCQBytes)
}

// RingSQOff returns the byte offset of submission slot i.
func RingSQOff(entries, i uint64) uint64 {
	return RingHeaderBytes + (i%entries)*RingDescBytes
}

// RingCQOff returns the byte offset of completion slot i.
func RingCQOff(entries, i uint64) uint64 {
	return RingHeaderBytes + entries*RingDescBytes + (i%entries)*RingCQBytes
}

// domainRing is the monitor's record of one domain's ring.
type domainRing struct {
	owner   DomainID
	base    phys.Addr
	entries uint64
	region  phys.Region
	// head is the authoritative consume index (the sqHead word in
	// guest memory is a mirror, never trusted). Only the drain advances
	// it.
	head uint64
	// capGen is the capability-space generation at the last successful
	// access validation of the ring footprint.
	capGen uint64

	// The ring's part of the round in flight (drain.go): the drain's own
	// failure, and the revocations its CallRevoke descriptors published,
	// awaiting the round's retire.
	err  error
	pend []*cap.Detached
}

// RingSetup registers (or replaces) the caller's submission/completion
// ring at base with the given capacity. The whole footprint must lie
// in memory the caller holds read+write; the monitor initialises the
// header. Guests reach this via CallRingSetup (r1 = base,
// r2 = entries).
func (m *Monitor) RingSetup(caller DomainID, base phys.Addr, entries uint64) error {
	if entries == 0 || entries > MaxRingEntries {
		return m.deny("ring capacity %d out of range [1,%d]", entries, MaxRingEntries)
	}
	size := RingBytes(entries)
	if err := m.checkRange(caller, base, size, cap.RightRead|cap.RightWrite); err != nil {
		return err
	}
	r := &domainRing{
		owner:   caller,
		base:    base,
		entries: entries,
		region:  phys.MakeRegion(base, size),
		capGen:  m.space.Generation(),
	}
	mem := m.mach.Mem
	if err := mem.Write64(base+RingOffEntries, entries); err != nil {
		return err
	}
	for _, off := range []uint64{RingOffSQTail, RingOffSQHead, RingOffCQTail} {
		if err := mem.Write64(base+phys.Addr(off), 0); err != nil {
			return err
		}
	}
	m.rings[caller] = r
	return nil
}

// RingFlush drains the caller's ring now, as a round of its own (the
// dedicated-mode doorbell; guests reach it via CallRingFlush, which
// charges the one VM exit the whole batch shares). It returns the
// number of descriptors executed, and the ring's failure or else the
// round's retire failure — completions already written stay as they
// are either way.
func (m *Monitor) RingFlush(caller DomainID) (uint64, error) {
	return m.ringFlush(caller, trace.GlobalCore)
}

func (m *Monitor) ringFlush(caller DomainID, core int32) (uint64, error) {
	if _, err := m.liveDomain(caller); err != nil {
		return 0, err
	}
	r, ok := m.rings[caller]
	if !ok {
		return 0, m.deny("domain %d has no ring (CallRingSetup first)", caller)
	}
	one := [1]*domainRing{r}
	n, err := m.drainRound(core, one[:])
	if r.err != nil {
		err = r.err
	}
	// Ring-drain doorbells double as runtime-verification merge points:
	// the drained batch's trace frame is complete here.
	m.Checkpoint()
	return n, err
}

// DrainRings drains every registered ring as one round and returns the
// total descriptors executed. Management code driving its own rounds
// (internal/sched) calls it at every round barrier; embedders may call
// it directly. With no rings registered it returns immediately.
func (m *Monitor) DrainRings() uint64 {
	if len(m.rings) == 0 {
		return 0
	}
	rings := make([]*domainRing, 0, len(m.rings))
	for _, r := range m.rings {
		rings = append(rings, r)
	}
	slices.SortFunc(rings, func(a, b *domainRing) int { return cmp.Compare(a.owner, b.owner) })
	// Dead or vanished owners drop out before the round.
	rings = slices.DeleteFunc(rings, func(r *domainRing) bool {
		d, err := m.Domain(r.owner)
		dead := err != nil || d.State() == StateDead
		if dead {
			delete(m.rings, r.owner)
		}
		return dead
	})
	if len(rings) == 0 {
		return 0
	}
	total, _ := m.drainRound(trace.GlobalCore, rings)
	// A failed per-ring drain must not poison the other tenants' rings,
	// but no caller is there to take it either: count it and latch the
	// first occurrence for diagnosis (Stats().RingDrainErrors,
	// FirstDrainError).
	for _, r := range rings {
		m.noteDrainError(r.err)
	}
	return total
}

// drainRing reads every pending descriptor out of r and executes it as
// one batch, bracketed by KBatchBegin/KBatchEnd trace events — the only
// function that reads submission descriptors. It runs inside a round
// (drain.go). Revocations only publish here; the round retires them,
// and owns the one shootdown batch. Returns the number of descriptors
// executed.
func (m *Monitor) drainRing(r *domainRing, core int32) (uint64, error) {
	mem := m.mach.Mem
	// Revalidate ring access only if the capability space moved since
	// the last check (pre-validated fast path).
	if err := m.ringRevalidate(r); err != nil {
		delete(m.rings, r.owner)
		return 0, err
	}
	tail, err := mem.Read64(r.base + RingOffSQTail)
	if err != nil {
		return 0, err
	}
	head := r.head
	pending := tail - head
	if pending == 0 {
		return 0, nil
	}
	if pending > r.entries {
		// A malformed tail (guest overran its own ring) denies the whole
		// flush; nothing is consumed, so a fixed-up guest can retry.
		return 0, m.deny("domain %d ring tail %d overruns head %d by more than %d entries",
			r.owner, tail, head, r.entries)
	}

	tok := m.newTok()
	m.mach.Trace(core, trace.KBatchBegin, uint64(r.owner), pending, tok, 0, 0)

	var executed uint64
	aborted := false
	for i := head; i != tail; i++ {
		off := phys.Addr(RingSQOff(r.entries, i))
		var desc [6]uint64
		readErr := error(nil)
		for w := range desc {
			if desc[w], readErr = mem.Read64(r.base + off + phys.Addr(8*w)); readErr != nil {
				break
			}
		}
		if readErr != nil {
			aborted = true
			break
		}
		status, result := m.ringExec(r, desc[0], desc[1], desc[2], desc[3], desc[4], desc[5])
		executed++
		// A batch may revoke (or grant away) its own ring memory;
		// recheck before the monitor writes into it on the owner's
		// behalf. On loss the batch aborts: remaining descriptors are
		// discarded with the registration.
		if err := m.ringRevalidate(r); err != nil {
			aborted = true
			break
		}
		cq := phys.Addr(RingCQOff(r.entries, i))
		if err := mem.Write64(r.base+cq, status); err != nil {
			aborted = true
			break
		}
		if err := mem.Write64(r.base+cq+8, result); err != nil {
			aborted = true
			break
		}
	}
	r.head += executed
	head = r.head
	if !aborted {
		// Mirror progress for the guest (monitor-side head stays
		// authoritative).
		if err := mem.Write64(r.base+RingOffSQHead, head); err == nil {
			_ = mem.Write64(r.base+RingOffCQTail, head)
		}
	}
	m.stats.RingOps += executed
	m.stats.RingFlushes++
	m.mach.Trace(core, trace.KBatchEnd, uint64(r.owner), executed, tok, 0, 0)
	if aborted {
		delete(m.rings, r.owner)
		return executed, m.deny("domain %d lost its ring mid-batch after %d ops", r.owner, executed)
	}
	return executed, nil
}

// ringRevalidate rechecks the owner's read+write access over the ring
// footprint iff the capability space changed since the last check.
func (m *Monitor) ringRevalidate(r *domainRing) error {
	gen := m.space.Generation()
	if gen == r.capGen {
		return nil
	}
	if err := m.checkRange(r.owner, r.base, r.region.Size(), cap.RightRead|cap.RightWrite); err != nil {
		return err
	}
	r.capGen = gen
	return nil
}

// ringExec executes one descriptor on behalf of r's owner (inside a
// round). Only non-transfer verbs are ring-eligible: control transfers
// (call/return/fast-switch/yield) change which domain runs on a core
// and cannot be deferred into a drain; ring management itself doesn't
// nest. An ineligible or unknown verb fails its own completion with
// StatusBadCall without poisoning the rest of the batch, exactly as a
// denied op fails only itself. Every verb is execVerb's (abi.go), in
// full, except CallRevoke, whose completion is decided by its publish:
// the irreversible tail retires with the round, so
// inside one batch a revoked grant's parent regains access when the
// round retires, not between two descriptors.
func (m *Monitor) ringExec(r *domainRing, verb, a1, a2, a3, a4, a5 uint64) (status, result uint64) {
	if verb != CallRevoke {
		status, result, _ = m.execVerb(r.owner, verb, a1, a2, a3, a4, a5)
		return status, result
	}
	tok := m.newTok()
	m.emit(trace.KOpBegin, r.owner, trace.OpRevoke, tok, 0, 0)
	det, err := m.revokePublish(r.owner, cap.NodeID(a1))
	m.emit(trace.KOpEnd, r.owner, trace.OpRevoke, tok, 0, 0)
	if err != nil {
		return StatusDenied, 0
	}
	r.pend = append(r.pend, det)
	return StatusOK, 0
}

// ringTeardown removes a dying domain's ring (called from
// destroyPublish BEFORE the death publish and the detach destroy the
// domain's capabilities). The pending
// descriptors are never executed — dead-domain silence extends to
// queued work — and the header is
// scrubbed so a stale ring cannot be mistaken for live state by whoever
// inherits the memory. The scrub only runs if the dying owner still
// holds read+write over the footprint: the owner may have granted or
// shared the ring pages away since the last validation, and writing the
// header then would scribble on a surviving domain's memory — the same
// cross-domain write the drain path's revalidation guards against. On
// loss the registration is simply dropped; exclusively-held pages (the
// usual home of a ring) are zeroed wholesale by the forced-scrub path
// regardless.
func (m *Monitor) ringTeardown(id DomainID) {
	r, ok := m.rings[id]
	if !ok {
		return
	}
	delete(m.rings, id)
	if err := m.ringRevalidate(r); err != nil {
		return
	}
	mem := m.mach.Mem
	for _, off := range []uint64{RingOffEntries, RingOffSQTail, RingOffSQHead, RingOffCQTail} {
		_ = mem.Write64(r.base+phys.Addr(off), 0)
	}
}
