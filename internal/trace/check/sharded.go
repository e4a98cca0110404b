package check

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tyche-sim/tyche/internal/trace"
)

// Sharded is the production-rate form of the invariant checker: a
// trace.ShardSink whose per-ring shard checkers evaluate everything
// they can locally — event tallies, the high-rate dead-domain check
// over transitions, op-balance bookkeeping — and buffer the low-rate
// structural events (ops, capability mutations, shootdowns and their
// acks, scrubs, kills, batch brackets) for a merge step. The merge,
// run at the monitor's quiescent points (scheduler round barriers,
// ring-drain doorbells, run completion), feeds the buffered events in
// global sequence order through the same engine the serial Checker
// uses, so the two reject identical traces with identical messages —
// the differential and mutation suites pin exactly that.
//
// The hot emit path never serialises: a shard consumes its own ring's
// events under its own mutex (per-core rings have a single emitter;
// only the global ring sees concurrent delivery), and the sample-
// eligible kinds are handled entirely locally with zero allocations.
//
// Merge soundness: the merge may only resolve structural properties
// once every assigned sequence number has been delivered to a shard —
// otherwise an in-flight ack could be mistaken for a missing one. The
// gate is a counting argument: read S = Σ shard.seen (under the shard
// locks), then L = Tracer.Len(). Delivered events are a subset of
// assigned ones and both counters are monotone, so S == L proves every
// assigned event is buffered; the merge then processes a seq-complete
// prefix, and later merges see strictly larger sequence numbers. When
// S != L the merge defers — buffered events simply wait for the next
// quiescent point.
type Sharded struct {
	tr *trace.Tracer // nil for replay: every merge is stable

	growMu sync.Mutex
	shards atomic.Pointer[[]*shard]

	// deadSeq maps domain -> Seq of its KKill, published copy-on-write
	// the moment the kill is *delivered* (before any merge), so shard-
	// local transition checks catch dead-domain use eagerly.
	deadMu  sync.Mutex
	deadSeq atomic.Pointer[map[uint64]uint64]

	// mergeMu serialises merges and owns everything below.
	mergeMu  sync.Mutex
	eng      *engine
	pending  []trace.Event
	ended    bool
	merges   uint64
	deferred uint64
}

// shardUse is a domain's most recent locally-evaluated successful use.
type shardUse struct {
	ev      trace.Event
	flagged bool
}

// shard is one ring's checker state. Its mutex is private to the ring:
// shards never contend with each other or with the merge outside the
// brief buffer handoff.
type shard struct {
	mu       sync.Mutex
	seen     uint64
	counts   Counts
	opBegins uint64 // local op-balance bookkeeping (digest signal)
	opEnds   uint64
	buf      []trace.Event
	lastUse  map[uint64]shardUse
	viols    []Violation
}

// NewSharded returns a sharded checker for the tracer's rings. Attach
// it with tr.AttachSharded BEFORE the tracer is installed on the
// machine so the shard space observes the trace from KBoot.
func NewSharded(tr *trace.Tracer) *Sharded {
	n := 1
	if tr != nil {
		n = tr.Rings()
	}
	s := &Sharded{tr: tr, eng: newEngine()}
	s.initShards(n)
	return s
}

// NewShardedN returns a sharded checker over a fixed shard count with
// no tracer attached (for replays and fuzzing): every merge is stable
// by construction because the caller feeds events synchronously.
func NewShardedN(rings int) *Sharded {
	if rings < 1 {
		rings = 1
	}
	s := &Sharded{eng: newEngine()}
	s.initShards(rings)
	return s
}

func (s *Sharded) initShards(n int) {
	sl := make([]*shard, n)
	for i := range sl {
		sl[i] = &shard{lastUse: make(map[uint64]shardUse)}
	}
	s.shards.Store(&sl)
}

func (s *Sharded) shard(i int) *shard {
	if i < 0 {
		i = 0
	}
	sl := *s.shards.Load()
	if i < len(sl) {
		return sl[i]
	}
	s.growMu.Lock()
	defer s.growMu.Unlock()
	sl = *s.shards.Load()
	if i < len(sl) {
		return sl[i]
	}
	grown := make([]*shard, i+1)
	copy(grown, sl)
	for j := len(sl); j <= i; j++ {
		grown[j] = &shard{lastUse: make(map[uint64]shardUse)}
	}
	s.shards.Store(&grown)
	return grown[i]
}

// publishDead records a kill's sequence number for the eager shard-
// local dead checks. Kills are rare; copy-on-write keeps the read side
// a single atomic load.
func (s *Sharded) publishDead(domain, seq uint64) {
	s.deadMu.Lock()
	defer s.deadMu.Unlock()
	old := s.deadSeq.Load()
	var m map[uint64]uint64
	if old == nil {
		m = make(map[uint64]uint64, 1)
	} else {
		m = make(map[uint64]uint64, len(*old)+1)
		for k, v := range *old {
			m[k] = v
		}
	}
	if _, ok := m[domain]; !ok {
		m[domain] = seq
	}
	s.deadSeq.Store(&m)
}

// ShardEvent consumes one event from ring `shard` (trace.ShardSink).
// The sample-eligible kinds are fully evaluated here — allocation-free
// — and never reach the merge; everything else is buffered for
// seq-ordered structural resolution.
func (s *Sharded) ShardEvent(si int, ev trace.Event) {
	sh := s.shard(si)
	sh.mu.Lock()
	sh.seen++
	switch ev.Kind {
	case trace.KVMCall:
		sh.counts.VMCalls++
	case trace.KTransition:
		if ev.Size == trace.TransFast {
			sh.counts.FastSwitches++
		} else {
			sh.counts.Transitions++
		}
		// Eager dead-domain silence over the one high-rate kind the
		// property covers. The published kill map can lag delivery by a
		// racing in-flight emission, so End() reconciles each domain's
		// last use against the kill sequence as the completeness
		// backstop; `flagged` keeps the two layers from double-reporting
		// the same event.
		use := shardUse{ev: ev}
		if dm := s.deadSeq.Load(); dm != nil {
			if ks, ok := (*dm)[ev.Domain]; ok && ks < ev.Seq {
				sh.viols = append(sh.viols, Violation{
					Event: ev,
					Msg:   deadUseMsg(ev),
				})
				use.flagged = true
			}
		}
		sh.lastUse[ev.Domain] = use
	case trace.KIRQRoute:
		sh.counts.IRQsRouted++
	case trace.KIRQDrop:
		sh.counts.IRQsDropped++
	case trace.KTrap, trace.KIRQRaise, trace.KIRQLost, trace.KIRQSpurious:
		// Local, tally-free kinds: consumed and done.
	default:
		// Structural: op frames, capability mutations, shootdown
		// rounds, scrubs, kills, batches, filter writes — buffered for
		// the seq-ordered merge.
		switch ev.Kind {
		case trace.KOpBegin, trace.KBatchBegin:
			sh.opBegins++
		case trace.KOpEnd, trace.KBatchEnd:
			sh.opEnds++
		case trace.KKill:
			s.publishDead(ev.Domain, ev.Seq)
		}
		sh.buf = append(sh.buf, ev)
	}
	sh.mu.Unlock()
}

// MergeReport describes one merge attempt.
type MergeReport struct {
	// Merged is true when the structural resolution ran (the stability
	// gate passed); false means the buffered events were carried to the
	// next quiescent point.
	Merged bool
	// Pending is how many structural events are carried when deferred.
	Pending int
	// Events are the structural events resolved by this merge, in
	// sequence order — the digest's audit stream.
	Events []trace.Event
	// NewViolations are the violations this merge's resolution added.
	NewViolations []Violation
	// Seen is the total delivered event count at the merge point.
	Seen uint64
}

// Merge drains every shard's structural buffer and, if the stability
// gate passes (see the type comment), resolves the buffered events
// through the engine in sequence order. Safe to call from any
// goroutine; the monitor calls it at quiescent points via its
// checkpoint hook.
func (s *Sharded) Merge() MergeReport {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	if s.ended {
		return MergeReport{}
	}
	return s.mergeLocked(false)
}

func (s *Sharded) mergeLocked(force bool) MergeReport {
	var delivered uint64
	for _, sh := range *s.shards.Load() {
		sh.mu.Lock()
		s.pending = append(s.pending, sh.buf...)
		sh.buf = sh.buf[:0]
		delivered += sh.seen
		sh.mu.Unlock()
	}
	// Stability gate: S (read first) == L proves full delivery.
	if !force && s.tr != nil && delivered != s.tr.Len() {
		s.deferred++
		return MergeReport{Pending: len(s.pending), Seen: delivered}
	}
	sort.SliceStable(s.pending, func(i, j int) bool {
		return s.pending[i].Seq < s.pending[j].Seq
	})
	vBefore := len(s.eng.violations)
	for _, ev := range s.pending {
		s.eng.step(ev)
	}
	rep := MergeReport{
		Merged: true,
		Events: append([]trace.Event(nil), s.pending...),
		Seen:   delivered,
	}
	if n := len(s.eng.violations); n > vBefore {
		rep.NewViolations = append([]Violation(nil), s.eng.violations[vBefore:]...)
	}
	s.pending = s.pending[:0]
	s.merges++
	return rep
}

// End closes the check: a final (unconditional) merge, the lastUse-vs-
// kill reconciliation, and the engine's end-of-trace validation. The
// caller guarantees quiescence — no emissions may be in flight.
// Idempotent.
func (s *Sharded) End() {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.mergeLocked(true)
	if dm := s.deadSeq.Load(); dm != nil {
		for _, sh := range *s.shards.Load() {
			sh.mu.Lock()
			doms := make([]uint64, 0, len(sh.lastUse))
			for dom := range sh.lastUse {
				doms = append(doms, dom)
			}
			sort.Slice(doms, func(i, j int) bool { return doms[i] < doms[j] })
			for _, dom := range doms {
				use := sh.lastUse[dom]
				if ks, ok := (*dm)[dom]; ok && ks < use.ev.Seq && !use.flagged {
					sh.viols = append(sh.viols, Violation{
						Event: use.ev,
						Msg:   deadUseMsg(use.ev),
					})
				}
			}
			sh.mu.Unlock()
		}
	}
	s.eng.end()
}

// Merges returns how many stable merges have resolved structural
// events; Deferred returns how many merge attempts hit the stability
// gate and carried their buffers instead.
func (s *Sharded) Merges() uint64 {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	return s.merges
}

func (s *Sharded) Deferred() uint64 {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	return s.deferred
}

// Violations returns every failure recorded so far: the merge engine's
// in resolution order, then the shard-local eager detections in shard
// order — deterministic for a deterministic delivery order.
func (s *Sharded) Violations() []Violation {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	out := append([]Violation(nil), s.eng.violations...)
	for _, sh := range *s.shards.Load() {
		sh.mu.Lock()
		out = append(out, sh.viols...)
		sh.mu.Unlock()
	}
	return out
}

// Err finalises the check (End) and returns an error describing the
// violations, or nil if the trace is clean.
func (s *Sharded) Err() error {
	s.End()
	return violationsErr(s.Violations())
}

// Counts returns the event-derived statistics tally: the merge
// engine's structural counts plus every shard's local tallies. Counts
// from unmerged buffered events are not yet included; call after a
// merge (or End) for a complete view.
func (s *Sharded) Counts() Counts {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	c := s.eng.counts
	for _, sh := range *s.shards.Load() {
		sh.mu.Lock()
		c.add(sh.counts)
		sh.mu.Unlock()
	}
	return c
}

// Seen returns how many events the shards have consumed (delivered
// events, whether or not yet merged).
func (s *Sharded) Seen() uint64 {
	var n uint64
	for _, sh := range *s.shards.Load() {
		sh.mu.Lock()
		n += sh.seen
		sh.mu.Unlock()
	}
	return n
}

// ShardStat is one shard's local bookkeeping snapshot.
type ShardStat struct {
	Seen     uint64
	OpBegins uint64
	OpEnds   uint64
}

// ShardStats snapshots per-shard local bookkeeping (digest material).
func (s *Sharded) ShardStats() []ShardStat {
	sl := *s.shards.Load()
	out := make([]ShardStat, len(sl))
	for i, sh := range sl {
		sh.mu.Lock()
		out[i] = ShardStat{Seen: sh.seen, OpBegins: sh.opBegins, OpEnds: sh.opEnds}
		sh.mu.Unlock()
	}
	return out
}

// replayMergeEvery is how often ReplaySharded interposes a merge, so
// replays exercise the incremental path rather than one giant batch.
const replayMergeEvery = 256

// ReplaySharded runs a captured trace through a fresh sharded checker:
// events are sorted by sequence number, delivered to the shard their
// ring index dictates, and merged incrementally. The differential
// suite compares its verdicts against the serial Replay's.
func ReplaySharded(events []trace.Event) *Sharded {
	evs := append([]trace.Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	rings := 1
	for _, ev := range evs {
		if n := int(ev.Core) + 2; n > rings {
			rings = n
		}
	}
	s := NewShardedN(rings)
	for i, ev := range evs {
		ri := 0
		if n := int(ev.Core) + 1; n >= 1 && n < rings {
			ri = n
		}
		s.ShardEvent(ri, ev)
		if (i+1)%replayMergeEvery == 0 {
			s.Merge()
		}
	}
	s.Merge()
	return s
}
