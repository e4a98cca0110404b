// Package check is an online invariant checker over the monitor's
// event trace. One engine evaluates the properties below, and one
// Checker wraps it: attached to a trace.Tracer as a Sink it validates
// the stream as it is produced — the tracer delivers every event in Seq
// order — and Replay feeds it a previously captured trace instead.
// Online, Merge closes an interval at the monitor's quiescent points:
// it hands over the interval's structural events (the audit stream a
// trace digest ships, see digest.go) and the violations no earlier
// interval reported.
//
// The temporal safety properties it enforces:
//
//  1. Dead-domain silence: once a domain's destruction completes
//     (KKill), the monitor never again performs a successful mediated
//     operation by or for that domain — no transitions into it, no
//     delegations from it, no capability mutations, and no enforcement
//     filter (EPT/PMP) programmed for it.
//  2. Shootdown targeting and acknowledgement: a TLB shootdown round
//     targets every core that may cache a translation of a domain it
//     invalidates for, and every targeted core acknowledges it before
//     the monitor operation that started it completes (KOpEnd) — a
//     revocation or kill must not return while any core can still hit
//     stale translations. A core may cache a domain's translations
//     once a KTransition on it enters the domain: a fast switch
//     (TransFast) adds the domain to what the core is resident for,
//     every other transition replaces that set with the domain (the
//     context install flushes the TLB), and acknowledging a whole-TLB
//     round empties it. Three cases fail: a resident core the round
//     does not target, a targeted core that never acks, and an ack
//     from a core the round did not target.
//  3. Scrub before kill completes: every exclusively-held region a
//     kill plans to reclaim (KScrubPlan) is zeroed and shot down
//     (KScrub) before the destruction closes (KKill) — memory is never
//     reusable before it is scrubbed.
//  4. Structural sanity: operations balance (KOpEnd matches KOpBegin),
//     and acknowledgements only occur for an open shootdown.
//  5. One round per frame: every frame — a monitor operation
//     (KOpBegin..KOpEnd), a ring drain (KBatchBegin..KBatchEnd) or a
//     drain round (KDrainBegin..KDrainEnd) — performs at most one
//     cross-core shootdown round, however many revocations, scrubs or
//     victims it retired, and that round is fully acknowledged before
//     the frame closes. One body checks it at every frame close. Batches
//     are also subject to dead-domain silence: a drain never runs for a
//     killed ring owner.
//
// Shootdown rounds are attributed to the innermost open frame that can
// legitimately own one — a revoke/kill operation, a ring-drain batch,
// or a drain round. Delegation frames never start rounds, so an open
// share/grant frame must not adopt (and then fail) a round a
// destructive operation started.
//
// Alongside the properties the checker tallies event-derived counters
// (Counts) that tests compare against Monitor.Stats(): the two are
// produced by independent code paths at the same commit points, so a
// mismatch means an emit point or a stats update drifted.
//
// A Checker, like the tracer that feeds it, is used by one goroutine at
// a time and holds no lock.
package check

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// Violation is one invariant failure, anchored to the offending event.
type Violation struct {
	Event trace.Event
	Msg   string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s (at %s)", v.Msg, v.Event)
}

// Counts are monitor statistics derived purely from the event stream.
// With a tracer installed at boot they must equal the corresponding
// Monitor.Stats() fields.
type Counts struct {
	VMCalls       uint64
	Transitions   uint64 // launch/call/return (not fast switches)
	FastSwitches  uint64
	CapOps        uint64 // share + grant + revoke + seal
	Revocations   uint64
	ForcedKills   uint64
	MachineChecks uint64
	CoresParked   uint64
	PagesScrubbed uint64
	Shootdowns    uint64
	IRQsRouted    uint64
	IRQsDropped   uint64
	Attests       uint64
	Batches       uint64 // ring drains (KBatchBegin)
	BatchedOps    uint64 // descriptors executed inside drains (KBatchEnd.Aux)
	Drains        uint64 // drain rounds (KDrainBegin)
}

// shootdown is one in-flight cross-core TLB shootdown; ev.Aux is the
// mask of the cores it targets. acks is the set of cores that
// acknowledged it; a core ID outside [0, cores) counts like any other.
type shootdown struct {
	ev   trace.Event
	acks map[uint64]bool
}

// targets reports whether the round targets core.
func (sd *shootdown) targets(core uint64) bool {
	return core < 64 && sd.ev.Aux&(1<<core) != 0
}

// acked counts the targeted cores that acknowledged the round, and
// returns it with the number it targets.
func (sd *shootdown) acked() (acked, targeted int) {
	for core := range sd.acks {
		if sd.targets(core) {
			acked++
		}
	}
	return acked, bits.OnesCount64(sd.ev.Aux)
}

// frame is one open monitor operation (KOpBegin..KOpEnd), ring drain
// (KBatchBegin..KBatchEnd), or drain round
// (KDrainBegin..KDrainEnd).
type frame struct {
	ev        trace.Event
	batch     bool
	drain     bool
	shootdown []*shootdown
}

// region is a planned scrub target.
type region struct{ addr, size uint64 }

// engine is the property state machine itself, with no locking: one
// instance per linearised event stream. The Checker wraps it in a
// mutex, and a RemoteVerifier replays a node's audit stream through its
// own.
//
// A closed frame and the shootdown records it owned go back to free
// lists (acks cleared, not remade), so once the engine has seen the
// deepest nesting and the most cores a stream uses, only what it keeps
// allocates: a kill's dead-set entry, a domain's first scrub plan, and
// violations.
type engine struct {
	cores int
	// resident is, per core, the domains whose translations the core
	// may cache (property 2), from its KTransitions.
	resident   [][]uint64
	dead       map[uint64]bool
	frames     []*frame
	last       *shootdown // most recent shootdown awaiting acks
	orphans    []*shootdown
	scrubPlans map[uint64][]region
	counts     Counts
	violations []Violation

	freeFrames []*frame
	freeRounds []*shootdown
}

func newEngine() *engine {
	return &engine{
		dead:       make(map[uint64]bool),
		scrubPlans: make(map[uint64][]region),
	}
}

func (c *engine) violate(ev trace.Event, format string, args ...any) {
	c.violations = append(c.violations, Violation{
		Event: ev,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// step consumes one event of the linearised stream.
func (c *engine) step(ev trace.Event) {
	// Property 1: dead-domain silence. Only kinds emitted on a
	// *successful* monitor-mediated operation participate — raw
	// hardware events (traps, IRQ raises) and VMCall entries can race
	// with a kill on another core and prove nothing by themselves.
	switch ev.Kind {
	case trace.KTransition, trace.KShare, trace.KGrant, trace.KRevoke,
		trace.KSeal, trace.KEPTMap, trace.KPMPWrite, trace.KAttest,
		trace.KBatchBegin, trace.KBatchEnd:
		if c.dead[ev.Domain] {
			c.violate(ev, "dead domain %d used in successful %s", ev.Domain, ev.Kind)
		}
	case trace.KCreate:
		if c.dead[ev.Aux] {
			c.violate(ev, "dead domain %d created domain %d", ev.Aux, ev.Domain)
		}
	}

	switch ev.Kind {
	case trace.KBoot:
		c.cores = int(ev.Size)
		for i := range c.resident {
			c.resident[i] = c.resident[i][:0]
		}
		for len(c.resident) < c.cores {
			c.resident = append(c.resident, nil)
		}
		c.resident = c.resident[:c.cores]

	case trace.KOpBegin:
		c.open(ev, false, false)

	case trace.KBatchBegin:
		c.counts.Batches++
		c.open(ev, true, false)

	case trace.KDrainBegin:
		c.counts.Drains++
		c.open(ev, false, true)

	case trace.KDrainEnd:
		idx := c.find(ev.Node, func(f *frame) bool { return f.drain })
		if idx < 0 {
			c.violate(ev, "drain round end token %d matches no open drain round", ev.Node)
			break
		}
		c.retire(c.pop(idx), ev)

	case trace.KBatchEnd:
		c.counts.BatchedOps += ev.Aux
		idx := c.find(ev.Node, func(f *frame) bool { return f.batch })
		if idx < 0 {
			c.violate(ev, "batch end token %d matches no open batch", ev.Node)
			break
		}
		c.retire(c.pop(idx), ev)

	case trace.KOpEnd:
		if len(c.frames) == 0 {
			c.violate(ev, "operation end with no open operation")
			break
		}
		// Frames carry a token in Node so each end matches its own begin
		// exactly; a kill storm nests its victims' frames. Token 0 is the
		// legacy form: strict LIFO.
		idx := len(c.frames) - 1
		if ev.Node != 0 {
			idx = c.find(ev.Node, func(*frame) bool { return true })
			if idx < 0 {
				c.violate(ev, "operation end token %d matches no open operation", ev.Node)
				break
			}
		}
		f := c.pop(idx)
		if f.ev.Aux != ev.Aux {
			c.violate(ev, "operation end %d does not match open operation %d", ev.Aux, f.ev.Aux)
		}
		c.retire(f, ev)

	case trace.KShootdown:
		c.counts.Shootdowns++
		sd := c.round(ev)
		c.last = sd
		if f := c.roundOwner(); f != nil {
			f.shootdown = append(f.shootdown, sd)
		} else {
			// Shootdown outside any round-owning frame: nothing closes
			// it, so require full acknowledgement by End().
			c.violateLater(sd)
		}
		c.require(ev)

	case trace.KShootdownFor:
		if c.last == nil {
			c.violate(ev, "shootdown for domain %d with no shootdown in flight", ev.Domain)
			break
		}
		c.require(ev)

	case trace.KShootdownAck:
		if c.last == nil {
			c.violate(ev, "shootdown ack from core %d with no shootdown in flight", ev.Aux)
			break
		}
		if !c.last.targets(ev.Aux) {
			c.violate(ev, "core %d acknowledged a shootdown that did not target it", ev.Aux)
		}
		if c.last.acks[ev.Aux] {
			c.violate(ev, "core %d acknowledged the same shootdown twice", ev.Aux)
		}
		c.last.acks[ev.Aux] = true
		if c.last.ev.Node == 1 && ev.Aux < uint64(len(c.resident)) {
			// The core flushed its whole TLB.
			c.resident[ev.Aux] = c.resident[ev.Aux][:0]
		}

	case trace.KScrubPlan:
		c.scrubPlans[ev.Domain] = append(c.scrubPlans[ev.Domain],
			region{addr: ev.Addr, size: ev.Size})

	case trace.KScrub:
		c.counts.PagesScrubbed += ev.Size / phys.PageSize
		plan := c.scrubPlans[ev.Domain]
		found := false
		for i, r := range plan {
			if r.addr == ev.Addr && r.size == ev.Size {
				c.scrubPlans[ev.Domain] = append(plan[:i], plan[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			c.violate(ev, "scrub of [%#x,+%d) not in domain %d's scrub plan", ev.Addr, ev.Size, ev.Domain)
		}

	case trace.KKill:
		// Property 3: nothing the kill planned to reclaim may remain
		// unscrubbed when the destruction completes.
		for _, r := range c.scrubPlans[ev.Domain] {
			c.violate(ev, "domain %d killed with unscrubbed exclusive region [%#x,+%d)",
				ev.Domain, r.addr, r.size)
		}
		delete(c.scrubPlans, ev.Domain)
		c.dead[ev.Domain] = true

	case trace.KVMCall:
		c.counts.VMCalls++
	case trace.KTransition:
		if ev.Size == trace.TransFast {
			c.counts.FastSwitches++
		} else {
			c.counts.Transitions++
		}
		c.reside(ev.Core, ev.Domain, ev.Size)
	case trace.KShare, trace.KGrant, trace.KSeal:
		c.counts.CapOps++
	case trace.KRevoke:
		// Aux=1 marks the implicit owner-revoke inside domain
		// destruction: a revocation, but not an API capability op.
		if ev.Aux == 0 {
			c.counts.CapOps++
		}
		c.counts.Revocations++
	case trace.KForceKill:
		c.counts.ForcedKills++
	case trace.KContain:
		c.counts.MachineChecks++
		c.counts.CoresParked++
	case trace.KIRQRoute:
		c.counts.IRQsRouted++
	case trace.KIRQDrop:
		c.counts.IRQsDropped++
	case trace.KAttest:
		c.counts.Attests++
	}
}

// reside applies one KTransition on core to its residency: a fast
// switch adds dom, every other kind replaces the set with it.
func (c *engine) reside(core int32, dom, kind uint64) {
	if core < 0 || int(core) >= len(c.resident) {
		return
	}
	set := c.resident[core]
	if kind != trace.TransFast {
		set = set[:0]
	} else if slices.Contains(set, dom) {
		return
	}
	c.resident[core] = append(set, dom)
}

// require checks that the round in flight targets every core resident
// for ev.Domain (ev is its KShootdown or a KShootdownFor).
func (c *engine) require(ev trace.Event) {
	for core, set := range c.resident {
		if slices.Contains(set, ev.Domain) && !c.last.targets(uint64(core)) {
			c.violate(ev, "shootdown [%#x,+%d) left out core %d, resident for domain %d",
				ev.Addr, ev.Size, core, ev.Domain)
		}
	}
}

// open pushes a frame for ev, reusing a closed one when there is one.
func (c *engine) open(ev trace.Event, batch, drain bool) {
	var f *frame
	if n := len(c.freeFrames); n > 0 {
		f, c.freeFrames = c.freeFrames[n-1], c.freeFrames[:n-1]
	} else {
		f = new(frame)
	}
	f.ev, f.batch, f.drain = ev, batch, drain
	c.frames = append(c.frames, f)
}

// find returns the index of the innermost open frame that has token tok
// and that is accepts, or -1.
func (c *engine) find(tok uint64, is func(*frame) bool) int {
	for i := len(c.frames) - 1; i >= 0; i-- {
		if f := c.frames[i]; f.ev.Node == tok && is(f) {
			return i
		}
	}
	return -1
}

// pop takes frame idx off the open stack.
func (c *engine) pop(idx int) *frame {
	f := c.frames[idx]
	c.frames = append(c.frames[:idx], c.frames[idx+1:]...)
	return f
}

// retire closes f at ev, its KOpEnd, KBatchEnd or KDrainEnd. Property
// 5, one body for every frame: f performed at most one shootdown round,
// and every round it performed was acknowledged by every core it
// targeted. Then f and its rounds go back to the free lists.
func (c *engine) retire(f *frame, ev trace.Event) {
	what := "operation"
	switch {
	case f.batch:
		what = "batch"
	case f.drain:
		what = "drain round"
	}
	if len(f.shootdown) > 1 {
		c.violate(ev, "%s performed %d shootdown rounds (a frame performs at most 1)", what, len(f.shootdown))
	}
	for _, sd := range f.shootdown {
		if acked, targeted := sd.acked(); acked != targeted {
			c.violate(ev, "shootdown [%#x,+%d) acked by %d/%d cores when %s completed",
				sd.ev.Addr, sd.ev.Size, acked, targeted, what)
		}
		if c.last == sd {
			c.last = nil
		}
		clear(sd.acks)
		c.freeRounds = append(c.freeRounds, sd)
	}
	f.shootdown = f.shootdown[:0]
	c.freeFrames = append(c.freeFrames, f)
}

// round returns a shootdown record for ev with no acks, reusing a
// retired one when there is one.
func (c *engine) round(ev trace.Event) *shootdown {
	n := len(c.freeRounds)
	if n == 0 {
		return &shootdown{ev: ev, acks: make(map[uint64]bool)}
	}
	sd := c.freeRounds[n-1]
	c.freeRounds = c.freeRounds[:n-1]
	sd.ev = ev
	return sd
}

// roundOwner returns the innermost open frame that can own a shootdown
// round: a ring-drain batch, a drain round, or a destructive
// (revoke/kill) operation. Delegation frames never start rounds, so a
// round is never attributed to a share/grant, which takes no part in
// the ack protocol.
func (c *engine) roundOwner() *frame {
	for i := len(c.frames) - 1; i >= 0; i-- {
		f := c.frames[i]
		if f.batch || f.drain {
			return f
		}
		if f.ev.Kind == trace.KOpBegin &&
			(f.ev.Aux == trace.OpRevoke || f.ev.Aux == trace.OpKill) {
			return f
		}
	}
	return nil
}

// orphan shootdowns (started outside any operation) are validated at
// end(); violateLater records them.
func (c *engine) violateLater(sd *shootdown) {
	c.orphans = append(c.orphans, sd)
}

// end closes the check: open operations and unacknowledged orphan
// shootdowns become violations.
func (c *engine) end() {
	for _, f := range c.frames {
		c.violate(f.ev, "operation %d still open at end of trace", f.ev.Aux)
	}
	c.frames = nil
	for _, sd := range c.orphans {
		if acked, targeted := sd.acked(); acked != targeted {
			c.violate(sd.ev, "shootdown outside any operation acked by %d/%d cores",
				acked, targeted)
		}
	}
	c.orphans = nil
}

// violationsErr formats a violation list the way Err reports it.
func violationsErr(vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	msg := fmt.Sprintf("%d trace invariant violation(s):", len(vs))
	for i, v := range vs {
		if i == 8 {
			msg += fmt.Sprintf("\n  ... and %d more", len(vs)-i)
			break
		}
		msg += "\n  " + v.String()
	}
	return fmt.Errorf("%s", msg)
}

// Checker validates the event stream online. It implements trace.Sink.
type Checker struct {
	e *engine
	// audit holds the structural events consumed since the last merge,
	// at most MaxAuditEvents of them; dropped counts the ones past the
	// cap, so a checker that is never merged stays bounded.
	audit   []trace.Event
	dropped uint64
	// lent is the buffer the last report's Events alias.
	lent []trace.Event
	// reported is how many of the engine's violations a report carried.
	reported int
	ended    bool
}

// New returns an empty checker. The machine core count is learned from
// the KBoot event the machine emits when a tracer is installed.
func New() *Checker {
	return &Checker{e: newEngine()}
}

// NewSharded is New, kept for benchmark/, which still compiles against
// the name.
func NewSharded(*trace.Tracer) *Checker { return New() }

// Replay runs a captured trace (any order; sorted by Seq first) through
// a fresh checker and returns it. The sort is stable so synthetic
// traces with duplicate sequence numbers replay deterministically.
func Replay(events []trace.Event) *Checker {
	evs := append([]trace.Event(nil), events...)
	slices.SortStableFunc(evs, bySeq)
	c := New()
	for _, ev := range evs {
		c.Event(ev)
	}
	return c
}

// bySeq orders events by sequence number.
func bySeq(a, b trace.Event) int { return cmp.Compare(a.Seq, b.Seq) }

// structural reports whether events of kind k join the audit stream:
// every kind but the high-rate ones — VMCalls, transitions, traps and
// interrupts.
func structural(k trace.Kind) bool {
	switch k {
	case trace.KVMCall, trace.KTransition, trace.KTrap, trace.KIRQRaise,
		trace.KIRQLost, trace.KIRQSpurious, trace.KIRQRoute, trace.KIRQDrop:
		return false
	}
	return true
}

// Event consumes one trace event (trace.Sink).
func (c *Checker) Event(ev trace.Event) {
	c.e.step(ev)
	if structural(ev.Kind) {
		if len(c.audit) < MaxAuditEvents {
			c.audit = append(c.audit, ev)
		} else {
			c.dropped++
		}
	}
}

// Merge closes the interval since the last merge: it reports the
// interval's structural events, how many of them the cap dropped, and
// the violations no earlier report carried. The events are copied into
// the one buffer the report lends. After End it returns an empty report.
func (c *Checker) Merge() MergeReport {
	if c.ended {
		return MergeReport{}
	}
	return c.merge()
}

// merge is Merge's body, End's final merge too.
func (c *Checker) merge() MergeReport {
	c.lent = append(c.lent[:0], c.audit...)
	rep := MergeReport{Events: c.lent, Dropped: c.dropped}
	if vs := c.e.violations[c.reported:]; len(vs) > 0 {
		rep.NewViolations = slices.Clone(vs)
	}
	c.audit, c.dropped, c.reported = c.audit[:0], 0, len(c.e.violations)
	return rep
}

// End closes the check: open operations and unacknowledged orphan
// shootdowns become violations, and a final merge reports the last
// interval with them. Call once the run is quiescent. Idempotent:
// later calls return an empty report.
func (c *Checker) End() MergeReport {
	if c.ended {
		return MergeReport{}
	}
	c.ended = true
	c.e.end()
	return c.merge()
}

// Violations returns every failure recorded so far.
func (c *Checker) Violations() []Violation {
	return append([]Violation(nil), c.e.violations...)
}

// Err finalises the check (End) and returns an error describing the
// violations, or nil if the trace is clean.
func (c *Checker) Err() error {
	c.End()
	return violationsErr(c.Violations())
}

// Counts returns the event-derived statistics tally.
func (c *Checker) Counts() Counts {
	return c.e.counts
}
