// Package check is an online invariant checker over the monitor's
// event trace. It attaches to a trace.Tracer as a Sink — validating
// the stream as it is produced, inline in any test or benchmark — or
// replays a previously captured trace. The serial Checker in this file
// is the reference implementation; Sharded (sharded.go) is the
// production-rate online form, which evaluates the same properties via
// per-ring shard checkers merged at quiescent points and is
// differentially tested against Replay.
//
// The temporal safety properties it enforces:
//
//  1. Dead-domain silence: once a domain's destruction completes
//     (KKill), the monitor never again performs a successful mediated
//     operation by or for that domain — no transitions into it, no
//     delegations from it, no capability mutations, and no enforcement
//     filter (EPT/PMP) programmed for it.
//  2. Shootdown acknowledgement: every TLB shootdown started inside a
//     monitor operation is acknowledged by all cores before the
//     operation completes (KOpEnd) — a revocation or kill must not
//     return while any core can still hit stale translations.
//  3. Scrub before kill completes: every exclusively-held region a
//     kill plans to reclaim (KScrubPlan) is zeroed and shot down
//     (KScrub) before the destruction closes (KKill) — memory is never
//     reusable before it is scrubbed.
//  4. Structural sanity: operations balance (KOpEnd matches KOpBegin),
//     and acknowledgements only occur for an open shootdown.
//  5. Batch coalescing: a ring drain (KBatchBegin..KBatchEnd) performs
//     at most one cross-core shootdown round of its own, no matter how
//     many revocations the batch executed, and that round — like any
//     op's — is fully acknowledged before the batch closes. Batches
//     are also subject to dead-domain silence: a drain never runs for
//     a killed ring owner.
//  6. Cross-ring coalescing: a drain round
//     (KDrainBegin..KDrainEnd) performs at most one cross-ring
//     shootdown round for all the revocations its ring drains
//     deferred, fully acknowledged before the round closes.
//
// Shootdown rounds are attributed to the innermost open frame that can
// legitimately own one — a revoke/kill operation, a ring-drain batch,
// or a drain round. Delegation frames never start rounds, so
// a share/grant frame concurrently open on another core must not adopt
// (and then fail) a round a destructive operation started.
//
// Alongside the properties the checker tallies event-derived counters
// (Counts) that tests compare against Monitor.Stats(): the two are
// produced by independent code paths at the same commit points, so a
// mismatch means an emit point or a stats update drifted.
package check

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

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

// add accumulates o into c (used when merging shard-local tallies).
func (c *Counts) add(o Counts) {
	c.VMCalls += o.VMCalls
	c.Transitions += o.Transitions
	c.FastSwitches += o.FastSwitches
	c.CapOps += o.CapOps
	c.Revocations += o.Revocations
	c.ForcedKills += o.ForcedKills
	c.MachineChecks += o.MachineChecks
	c.CoresParked += o.CoresParked
	c.PagesScrubbed += o.PagesScrubbed
	c.Shootdowns += o.Shootdowns
	c.IRQsRouted += o.IRQsRouted
	c.IRQsDropped += o.IRQsDropped
	c.Attests += o.Attests
	c.Batches += o.Batches
	c.BatchedOps += o.BatchedOps
	c.Drains += o.Drains
}

// shootdown is one in-flight cross-core TLB shootdown. acks is the set
// of cores that acknowledged it; a core ID outside [0, cores) counts
// like any other.
type shootdown struct {
	ev   trace.Event
	acks map[uint64]bool
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
// instance per linearised event stream. The serial Checker wraps it in
// a mutex; the Sharded checker feeds it the seq-ordered merge stream.
// Keeping a single engine is what makes the two checkers agree on
// violation messages byte for byte.
//
// A closed frame and the shootdown records it owned go back to free
// lists (acks cleared, not remade), so once the engine has seen the
// deepest nesting and the most cores a stream uses, only what it keeps
// allocates: a kill's dead-set entry, a domain's first scrub plan, and
// violations.
type engine struct {
	cores      int
	dead       map[uint64]bool
	frames     []*frame
	last       *shootdown // most recent shootdown awaiting acks
	orphans    []*shootdown
	scrubPlans map[uint64][]region
	counts     Counts
	violations []Violation
	seen       uint64

	freeFrames []*frame
	freeRounds []*shootdown
}

func newEngine() *engine {
	return &engine{
		dead:       make(map[uint64]bool),
		scrubPlans: make(map[uint64][]region),
	}
}

// deadUseMsg formats the dead-domain-silence violation. Both the
// serial engine and the sharded checker's eager shard-local path go
// through this one formatter, so their messages agree byte for byte.
func deadUseMsg(ev trace.Event) string {
	return fmt.Sprintf("dead domain %d used in successful %s", ev.Domain, ev.Kind)
}

func (c *engine) violate(ev trace.Event, format string, args ...any) {
	c.violations = append(c.violations, Violation{
		Event: ev,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// step consumes one event of the linearised stream.
func (c *engine) step(ev trace.Event) {
	c.seen++

	// Property 1: dead-domain silence. Only kinds emitted on a
	// *successful* monitor-mediated operation participate — raw
	// hardware events (traps, IRQ raises) and VMCall entries can race
	// with a kill on another core and prove nothing by themselves.
	switch ev.Kind {
	case trace.KTransition, trace.KShare, trace.KGrant, trace.KRevoke,
		trace.KSeal, trace.KEPTMap, trace.KPMPWrite, trace.KAttest,
		trace.KBatchBegin, trace.KBatchEnd:
		if c.dead[ev.Domain] {
			c.violate(ev, "%s", deadUseMsg(ev))
		}
	case trace.KCreate:
		if c.dead[ev.Aux] {
			c.violate(ev, "dead domain %d created domain %d", ev.Aux, ev.Domain)
		}
	}

	switch ev.Kind {
	case trace.KBoot:
		c.cores = int(ev.Size)

	case trace.KOpBegin:
		c.open(ev, false, false)

	case trace.KBatchBegin:
		c.counts.Batches++
		c.open(ev, true, false)

	case trace.KDrainBegin:
		c.counts.Drains++
		c.open(ev, false, true)

	case trace.KDrainEnd:
		idx := -1
		for i := len(c.frames) - 1; i >= 0; i-- {
			if c.frames[i].drain && c.frames[i].ev.Node == ev.Node {
				idx = i
				break
			}
		}
		if idx < 0 {
			c.violate(ev, "drain round end token %d matches no open drain round", ev.Node)
			break
		}
		f := c.pop(idx)
		// Property 6: one coalesced cross-ring shootdown round per
		// drain round, no matter how many rings deferred
		// revocation shootdowns into it.
		if len(f.shootdown) > 1 {
			c.violate(ev, "drain round performed %d shootdown rounds (cross-ring coalescing requires at most 1)",
				len(f.shootdown))
		}
		c.retire(f, ev, "drain ", "round")

	case trace.KBatchEnd:
		c.counts.BatchedOps += ev.Aux
		idx := -1
		for i := len(c.frames) - 1; i >= 0; i-- {
			if c.frames[i].batch && c.frames[i].ev.Node == ev.Node {
				idx = i
				break
			}
		}
		if idx < 0 {
			c.violate(ev, "batch end token %d matches no open batch", ev.Node)
			break
		}
		f := c.pop(idx)
		// Property 5: one coalesced shootdown round per drained batch.
		if len(f.shootdown) > 1 {
			c.violate(ev, "batch performed %d shootdown rounds (coalescing requires at most 1)",
				len(f.shootdown))
		}
		c.retire(f, ev, "batch ", "batch")

	case trace.KOpEnd:
		if len(c.frames) == 0 {
			c.violate(ev, "operation end with no open operation")
			break
		}
		// Frames carry a token in Node so interleaved operations match
		// their own begin exactly: a delegation is a reader entry (an
		// epoch pin, no lock), so callers on several host threads
		// interleave its frame with others, and a kill nests revocations.
		// Token 0 is the legacy form: strict LIFO.
		idx := len(c.frames) - 1
		if ev.Node != 0 {
			idx = -1
			for i := len(c.frames) - 1; i >= 0; i-- {
				if c.frames[i].ev.Node == ev.Node {
					idx = i
					break
				}
			}
			if idx < 0 {
				c.violate(ev, "operation end token %d matches no open operation", ev.Node)
				break
			}
		}
		f := c.pop(idx)
		if f.ev.Aux != ev.Aux {
			c.violate(ev, "operation end %d does not match open operation %d", ev.Aux, f.ev.Aux)
		}
		// Property 2: every shootdown this operation started must have
		// been acknowledged by all cores before the operation returns.
		c.retire(f, ev, "", "operation")

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

	case trace.KShootdownAck:
		if c.last == nil {
			c.violate(ev, "shootdown ack from core %d with no shootdown in flight", ev.Aux)
			break
		}
		if c.last.acks[ev.Aux] {
			c.violate(ev, "core %d acknowledged the same shootdown twice", ev.Aux)
		}
		c.last.acks[ev.Aux] = true

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

// pop takes frame idx off the open stack.
func (c *engine) pop(idx int) *frame {
	f := c.frames[idx]
	c.frames = append(c.frames[:idx], c.frames[idx+1:]...)
	return f
}

// retire closes f at ev: every shootdown round f owned must have been
// acknowledged by all cores (the violation reads "<what>shootdown ...
// when <when> completed"). Then f and its rounds go back to the free
// lists.
func (c *engine) retire(f *frame, ev trace.Event, what, when string) {
	for _, sd := range f.shootdown {
		if len(sd.acks) != c.cores {
			c.violate(ev, "%sshootdown [%#x,+%d) acked by %d/%d cores when %s completed",
				what, sd.ev.Addr, sd.ev.Size, len(sd.acks), c.cores, when)
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
// (revoke/kill) operation. Delegation frames never start rounds — a
// delegation is a reader entry, so when several host threads drive the
// monitor its frame can be open while a destructive operation on
// another thread starts a round, and attributing the round to whichever
// frame opened last would blame an innocent share/grant for an ack
// protocol it does not take part in.
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
		if len(sd.acks) != c.cores {
			c.violate(sd.ev, "shootdown outside any operation acked by %d/%d cores",
				len(sd.acks), c.cores)
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

// Checker validates the event stream online. It implements trace.Sink;
// all methods are safe for concurrent use. This is the serial
// reference checker: one mutex, one linearised stream.
type Checker struct {
	mu sync.Mutex
	e  *engine
}

// New returns an empty checker. The machine core count is learned from
// the KBoot event the machine emits when a tracer is installed.
func New() *Checker {
	return &Checker{e: newEngine()}
}

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

// Event consumes one trace event (trace.Sink).
func (c *Checker) Event(ev trace.Event) {
	c.mu.Lock()
	c.e.step(ev)
	c.mu.Unlock()
}

// End closes the check: open operations and unacknowledged orphan
// shootdowns become violations. Call once the run is quiescent (tests
// call it via Err).
func (c *Checker) End() {
	c.mu.Lock()
	c.e.end()
	c.mu.Unlock()
}

// Violations returns every failure recorded so far.
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.e.counts
}

// Seen returns how many events the checker has consumed.
func (c *Checker) Seen() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.e.seen
}
