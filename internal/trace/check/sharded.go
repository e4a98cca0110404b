package check

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/tyche-sim/tyche/internal/trace"
)

// Sharded is the production-rate form of the invariant checker: a
// trace.ShardSink whose per-ring shard checkers evaluate everything
// they can locally — event tallies and the high-rate dead-domain check
// over transitions — and buffer the low-rate structural events (ops,
// capability mutations, shootdowns and their acks, scrubs, kills,
// batch brackets) for a merge step. A shard also logs each transition's
// residency step (sequence number, domain, kind; the core is the
// shard's) apart from the structural buffer: the merge replays a core's
// log up to each round event's sequence number, so the engine sees the
// residency the serial checker sees, without sorting transitions or
// shipping them in the audit stream. A step no round can observe is
// overwritten, so a core that makes many transitions between rounds
// keeps a log of one. The merge, run at the monitor's
// quiescent points (scheduler round barriers, ring-drain doorbells,
// run completion), feeds the buffered events in global sequence order
// through the same engine the serial Checker uses, so the two reject
// identical traces with identical messages — the differential and
// mutation suites pin exactly that.
//
// A shard consumes its own ring's events under its own mutex, and the
// local kinds are handled entirely locally with zero allocations. A
// machine's cores run on one goroutine, so the shards rarely see
// concurrent delivery; the concurrent emitters are callers driving the
// monitor from several host threads (a fleet caller running Migrate or
// FailNode beside fleet.Serve, stress tests). The merge, too, allocates nothing in steady
// state: it sorts and lends one buffer, and the engine recycles its
// frames and shootdown records.
//
// One violation channel: every violation — the engine's, the shards'
// eager dead-transition detections, End's reconciliation and
// end-of-trace ones — appears in the NewViolations of exactly one
// MergeReport: the next stable merge, or the report End returns.
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
	tr     *trace.Tracer // nil for replay: every merge is stable
	shards []*shard      // one per ring, sized at construction

	// killLog is every KKill in delivery order, appended the moment the
	// kill is delivered (before any merge); kills is its published
	// length. A shard catches up on the log under its own lock before a
	// transition check, so a kill costs one append however many came
	// before it, and shard-local checks still catch dead-domain use
	// eagerly. killMu nests inside a shard's mu, never around one.
	killMu  sync.Mutex
	killLog []kill
	kills   atomic.Int64

	// mergeMu serialises merges and owns everything below.
	mergeMu sync.Mutex
	eng     *engine
	pending []trace.Event
	// steps holds each shard's residency log since the last stable
	// merge, and stepped how far of it the merge in progress applied.
	steps   [][]resideStep
	stepped []int
	// observed counts the delivered events that read or reset
	// residency: round events and KBoot.
	observed atomic.Int64
	// eager holds shard-local detections a deferred merge collected;
	// the next stable merge reports them.
	eager    []Violation
	ended    bool
	merges   uint64
	deferred uint64
}

// kill is one delivered KKill.
type kill struct{ domain, seq uint64 }

// resideStep is the residency content of one KTransition; its core is
// the shard's (ring c+1 is core c).
type resideStep struct {
	seq, dom, kind uint64
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
	mu      sync.Mutex
	seen    uint64
	counts  Counts
	buf     []trace.Event
	lastUse map[uint64]shardUse
	// steps is the residency log; steps[since:] were delivered after
	// the observed count read observedAt, so no round can have read
	// them.
	steps      []resideStep
	since      int
	observedAt int64
	// dead maps domain -> Seq of its first delivered KKill, caught up
	// from the kill log through entry killsSeen.
	dead      map[uint64]uint64
	killsSeen int
	// viols are eager detections no merge has collected yet.
	viols []Violation
}

// NewSharded returns a sharded checker for the tracer's rings. Attach
// it with tr.AttachSharded BEFORE the tracer is installed on the
// machine so the shard space observes the trace from KBoot.
func NewSharded(tr *trace.Tracer) *Sharded {
	s := NewShardedN(tr.Rings())
	s.tr = tr
	return s
}

// NewShardedN returns a sharded checker over a fixed shard count with
// no tracer attached (for replays and fuzzing): every merge is stable
// by construction because the caller feeds events synchronously.
func NewShardedN(rings int) *Sharded {
	n := max(rings, 1)
	s := &Sharded{eng: newEngine(), shards: make([]*shard, n), steps: make([][]resideStep, n), stepped: make([]int, n)}
	for i := range s.shards {
		s.shards[i] = &shard{lastUse: make(map[uint64]shardUse), dead: make(map[uint64]uint64)}
	}
	return s
}

// publishDead appends a kill to the log the shards catch up on.
func (s *Sharded) publishDead(domain, seq uint64) {
	s.killMu.Lock()
	s.killLog = append(s.killLog, kill{domain, seq})
	s.kills.Store(int64(len(s.killLog)))
	s.killMu.Unlock()
}

// killSeq returns the Seq of domain's kill as far as delivery has
// published it, first folding any kills sh has not seen into its map.
// sh.mu must be held.
func (s *Sharded) killSeq(sh *shard, domain uint64) (uint64, bool) {
	if n := int(s.kills.Load()); n > sh.killsSeen {
		s.killMu.Lock()
		for _, k := range s.killLog[sh.killsSeen:n] {
			if _, ok := sh.dead[k.domain]; !ok {
				sh.dead[k.domain] = k.seq
			}
		}
		s.killMu.Unlock()
		sh.killsSeen = n
	}
	ks, ok := sh.dead[domain]
	return ks, ok
}

// ShardEvent consumes one event from ring `si` (trace.ShardSink), an
// index below the ring count the checker was built for. The local
// kinds are fully evaluated here — allocation-free — and never reach
// the merge; everything else is buffered for seq-ordered structural
// resolution.
func (s *Sharded) ShardEvent(si int, ev trace.Event) {
	sh := s.shards[si]
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
		// property covers. The kill log can lag delivery by a racing
		// in-flight emission, so End() reconciles each domain's last use
		// against the kill sequence as the completeness backstop;
		// `flagged` keeps the two layers from double-reporting the same
		// event.
		use := shardUse{ev: ev}
		if ks, ok := s.killSeq(sh, ev.Domain); ok && ks < ev.Seq {
			sh.viols = append(sh.viols, Violation{Event: ev, Msg: deadUseMsg(ev)})
			use.flagged = true
		}
		sh.lastUse[ev.Domain] = use
		sh.logStep(s.observed.Load(), resideStep{seq: ev.Seq, dom: ev.Domain, kind: ev.Size})
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
		case trace.KKill:
			s.publishDead(ev.Domain, ev.Seq)
		case trace.KBoot, trace.KShootdown, trace.KShootdownFor, trace.KShootdownAck:
			s.observed.Add(1)
		}
		sh.buf = append(sh.buf, ev)
	}
	sh.mu.Unlock()
}

// logStep appends st to the shard's residency log (sh.mu held), given
// the observed count at its delivery. While the count has not moved
// since the last step, no round event was delivered in between — and
// the monitor emits a round's events holding every core's lock and a
// transition under its core's, with delivery inside the emit, so none
// has a sequence number in between either (a replay delivers in
// sequence order). Then a replacing step overwrites the steps since
// the count last moved, and a fast switch to a domain already among
// them adds nothing.
func (sh *shard) logStep(observed int64, st resideStep) {
	if observed != sh.observedAt {
		sh.observedAt, sh.since = observed, len(sh.steps)
	} else if st.kind != trace.TransFast {
		sh.steps = sh.steps[:sh.since]
	} else if slices.ContainsFunc(sh.steps[sh.since:], func(x resideStep) bool { return x.dom == st.dom }) {
		return
	}
	sh.steps = append(sh.steps, st)
}

// MergeReport describes one merge attempt.
type MergeReport struct {
	// Merged is true when the structural resolution ran (the stability
	// gate passed); false means the buffered events were carried to the
	// next quiescent point.
	Merged bool
	// Events are the structural events resolved by this merge, in
	// sequence order — the digest's audit stream. The slice is lent:
	// it is the merge's own buffer, valid until the next Merge or End on
	// the same checker, which refill it. A caller that keeps the events
	// past that copies them.
	Events []trace.Event
	// NewViolations are the violations no earlier report carried.
	NewViolations []Violation
}

// Merge drains every shard's structural buffer and eager detections
// and, if the stability gate passes (see the type comment), resolves
// the buffered events through the engine in sequence order. Safe to
// call from any goroutine; the monitor calls it at quiescent points
// via its checkpoint hook.
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
	for i, sh := range s.shards {
		sh.mu.Lock()
		s.pending = append(s.pending, sh.buf...)
		sh.buf = sh.buf[:0]
		s.steps[i] = append(s.steps[i], sh.steps...)
		sh.steps, sh.since = sh.steps[:0], 0
		s.eager = append(s.eager, sh.viols...)
		sh.viols = sh.viols[:0]
		delivered += sh.seen
		sh.mu.Unlock()
	}
	// Stability gate: S (read first) == L proves full delivery.
	if !force && s.tr != nil && delivered != s.tr.Len() {
		s.deferred++
		return MergeReport{}
	}
	slices.SortFunc(s.pending, bySeq) // Seq is unique: no stability needed
	// The engine's list is the one record: eager detections join it
	// here, ahead of what this merge's resolution adds.
	vBefore := len(s.eng.violations)
	s.eng.violations = append(s.eng.violations, s.eager...)
	s.eager = s.eager[:0]
	for _, ev := range s.pending {
		switch ev.Kind {
		case trace.KBoot, trace.KShootdown, trace.KShootdownFor, trace.KShootdownAck:
			s.reside(ev.Seq)
		}
		s.eng.step(ev)
	}
	s.reside(math.MaxUint64)
	for i := range s.steps {
		s.steps[i], s.stepped[i] = s.steps[i][:0], 0
	}
	rep := MergeReport{
		Merged:        true,
		Events:        s.pending,
		NewViolations: s.violationsSince(vBefore),
	}
	s.pending = s.pending[:0] // the next merge refills the lent buffer
	s.merges++
	return rep
}

// reside applies every logged residency step before seq to the engine.
// A core's steps all come from its own ring, in sequence order; the
// global ring's are no core's.
func (s *Sharded) reside(seq uint64) {
	for i, log := range s.steps {
		j := s.stepped[i]
		for ; j < len(log) && log[j].seq < seq; j++ {
			s.eng.reside(int32(i)-1, log[j].dom, log[j].kind)
		}
		s.stepped[i] = j
	}
}

// violationsSince copies the engine's violations from index i on.
func (s *Sharded) violationsSince(i int) []Violation {
	if i == len(s.eng.violations) {
		return nil
	}
	return append([]Violation(nil), s.eng.violations[i:]...)
}

// End closes the check: a final (unconditional) merge, the lastUse-vs-
// kill reconciliation, and the engine's end-of-trace validation. It
// returns one report carrying all three: the final merge's events and
// every violation no earlier report carried. The caller guarantees
// quiescence — no emissions may be in flight. Idempotent: later calls
// return an empty report.
func (s *Sharded) End() MergeReport {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	if s.ended {
		return MergeReport{}
	}
	s.ended = true
	rep := s.mergeLocked(true)
	vBefore := len(s.eng.violations)
	for _, sh := range s.shards {
		sh.mu.Lock()
		doms := make([]uint64, 0, len(sh.lastUse))
		for dom := range sh.lastUse {
			doms = append(doms, dom)
		}
		slices.Sort(doms)
		for _, dom := range doms {
			use := sh.lastUse[dom]
			if ks, ok := s.killSeq(sh, dom); ok && ks < use.ev.Seq && !use.flagged {
				s.eng.violate(use.ev, "%s", deadUseMsg(use.ev))
			}
		}
		sh.mu.Unlock()
	}
	s.eng.end()
	rep.NewViolations = append(rep.NewViolations, s.violationsSince(vBefore)...)
	return rep
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

// Violations returns every failure recorded so far: the reported ones
// in report order, then eager detections no stable merge has carried
// yet — deterministic for a deterministic delivery order.
func (s *Sharded) Violations() []Violation {
	s.mergeMu.Lock()
	defer s.mergeMu.Unlock()
	out := append(append([]Violation(nil), s.eng.violations...), s.eager...)
	for _, sh := range s.shards {
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
	for _, sh := range s.shards {
		sh.mu.Lock()
		c.add(sh.counts)
		sh.mu.Unlock()
	}
	return c
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
	slices.SortStableFunc(evs, bySeq)
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
