// Package trace is the monitor's cycle-stamped event trace. Every
// security-relevant state change in the simulated platform is mediated
// by the isolation monitor, so the full history of a run — VMCalls,
// transitions, capability mutations, traps, shootdowns, revocations,
// filter edits — is observable at one choke point. This package records
// that history: each emit point appends one fixed-shape Event to a
// per-core ring buffer, stamped with the sharded cycle clock and a
// global sequence number.
//
// "Runtime Verification for Trustworthy Computing" (PAPERS.md) argues
// that a minimal monitor's real value is that its state machine can be
// *checked*: temporal safety properties over the event stream, at run
// time. The sibling package trace/check implements exactly that — an
// online invariant checker that attaches to a Tracer as a Sink and
// validates the stream as it is produced, or replays a dumped trace.
//
// Cost model. Tracing is off by default: the machine holds a tracer
// pointer and every emit site is a nil-check branch — in every build:
// there is one, and the binary that is tested is the binary that can be
// verified (benchmark/ prices both states as trace.emit_ns and
// bench.trace_overhead_pct). Enabled, an emit builds the event on the
// stack, draws its sequence number, copies it into its ring and hands it
// to every attached Sink; nothing is allocated once the ring has grown
// to its capacity. So with runtime verification attached (internal/rv
// attaches its checker as a Sink) every emit steps the checker, and
// sinks observe the run in Seq order.
//
// A Tracer, like the machine that emits into it, is used by one
// goroutine at a time and holds no lock.
package trace

import (
	"fmt"
	"sort"
)

// GlobalCore is the Core value for events emitted from monitor or
// machine context rather than a specific core's instruction stream.
const GlobalCore int32 = -1

// Kind classifies one traced event. The Domain/Aux/Node/Addr/Size
// payload fields are kind-specific; the schema below is authoritative
// (docs/ARCHITECTURE.md carries the prose version).
type Kind uint8

// Event kinds and their payload schema.
const (
	// KBoot opens every trace: Size = machine core count.
	KBoot Kind = iota
	// KTrap is a core leaving guest execution: Domain = running owner,
	// Aux = hw.TrapKind, Addr = faulting address, Node = trapping PC.
	KTrap
	// KIRQRaise is a device interrupt reaching the controller:
	// Aux = device, Node = vector.
	KIRQRaise
	// KIRQLost is a raised line eaten by the fault injector.
	KIRQLost
	// KIRQSpurious is a phantom interrupt delivered by the injector.
	KIRQSpurious
	// KIRQRoute is the monitor delivering an interrupt to the domain
	// holding the device capability: Domain = receiver, Aux = device,
	// Node = vector.
	KIRQRoute
	// KIRQDrop is an interrupt with no capable receiver.
	KIRQDrop
	// KVMCall is one guest hypercall trap being serviced:
	// Domain = caller, Aux = call number.
	KVMCall
	// KTransition is a mediated domain switch: Domain = target,
	// Aux = source (0 when none), Size = TransLaunch..TransFast.
	KTransition
	// KOpBegin/KOpEnd bracket one monitor operation that may shoot down
	// TLBs (delegation, revocation, destruction): Domain = caller or
	// victim, Aux = OpShare..OpKill, Node = frame token. The token pairs
	// each end with its begin; frames may nest (a kill revokes).
	KOpBegin
	KOpEnd
	// KShare/KGrant are successful delegations: Domain = caller,
	// Aux = destination, Node = new capability node, Addr/Size = region.
	KShare
	KGrant
	// KRevoke is a successful revocation: Domain = caller, Node = the
	// revoked node (0 with Aux=1 for a whole-owner revocation during
	// domain destruction).
	KRevoke
	// KSeal is a domain sealing: Domain = sealed domain.
	KSeal
	// KCreate is domain creation: Domain = new ID, Aux = creator.
	KCreate
	// KShootdown is a cross-core TLB shootdown round starting: Domain =
	// the first domain it invalidates for, Aux = the cores it targets
	// (bit c = core c: those resident for one of its domains), Node = 1
	// when targeted cores flush their whole TLB, Addr/Size = the region
	// when there is exactly one and Node = 0, else 0/0. A round for
	// several domains names each further one in a KShootdownFor right
	// after it.
	KShootdown
	// KShootdownAck is one targeted core completing its flush:
	// Aux = core, Addr/Size as its round's.
	KShootdownAck
	// KForceKill is a destruction with monitor authority:
	// Domain = victim.
	KForceKill
	// KContain is the machine-check containment path running:
	// Core = faulting core, Domain = victim.
	KContain
	// KScrubPlan declares one exclusively-held region that must be
	// scrubbed before the kill completes: Domain = victim, Addr/Size.
	KScrubPlan
	// KScrub is a region zeroed and shot down: Domain = victim,
	// Addr/Size.
	KScrub
	// KKill closes a domain destruction — the domain is dead, its state
	// removed: Domain = victim.
	KKill
	// KEPTMap is the vtx backend rewriting one changed EPT extent — a
	// maximal run of pages whose permission a rebuild changed, one event
	// per extent, none for a view that did not change: Domain = owner,
	// Addr/Size = region, Node = the new permission bits (0 for pages
	// unmapped).
	KEPTMap
	// KEPTClear is the vtx backend emptying a domain's EPT.
	KEPTClear
	// KPMPWrite is the pmp backend writing one PMP entry whose contents
	// changed, one event per entry written, none for an entry left as it
	// was: Core = target core, Domain = owner (0 for the monitor's own
	// guard entry), Aux = entry index, Addr/Size and Node = perm bits of
	// the new contents (all 0 for an entry deprogrammed).
	KPMPWrite
	// KAttest is an attestation report being produced: Domain = subject.
	KAttest
	// KBatchBegin opens one ring drain: Domain = ring owner,
	// Aux = descriptors pending, Node = frame token. The logical ops the
	// batch executes emit their ordinary events inside the frame, so the
	// checker still sees every op. A revocation the batch executes only
	// publishes: its shootdown joins the enclosing drain round's one
	// round. Like every frame, a batch runs at most one round.
	KBatchBegin
	// KBatchEnd closes the drain: Domain = ring owner, Aux = descriptors
	// executed, Node = the matching begin token.
	KBatchEnd
	// KDrainBegin opens one drain round: its rings drain inside the
	// frame one after another on the caller's goroutine (each bracketed
	// by its own KBatchBegin/KBatchEnd), and the round's
	// deferred revocation shootdowns coalesce into at most one
	// cross-ring KShootdown before the frame closes. Domain = 0
	// (monitor context), Aux = rings in the round, Node = frame token.
	KDrainBegin
	// KDrainEnd closes the round: Aux = descriptors executed
	// across all rings, Node = the matching begin token.
	KDrainEnd
	// KShootdownFor names one further domain the open shootdown round
	// invalidates for: Domain = domain, Addr/Size as its round's.
	KShootdownFor

	numKinds
)

var kindNames = [...]string{
	KBoot: "boot", KTrap: "trap", KIRQRaise: "irq-raise",
	KIRQLost: "irq-lost", KIRQSpurious: "irq-spurious",
	KIRQRoute: "irq-route", KIRQDrop: "irq-drop", KVMCall: "vmcall",
	KTransition: "transition", KOpBegin: "op-begin", KOpEnd: "op-end",
	KShare: "share", KGrant: "grant", KRevoke: "revoke", KSeal: "seal",
	KCreate: "create", KShootdown: "shootdown",
	KShootdownAck: "shootdown-ack", KForceKill: "force-kill",
	KContain: "contain", KScrubPlan: "scrub-plan", KScrub: "scrub",
	KKill: "kill", KEPTMap: "ept-map", KEPTClear: "ept-clear",
	KPMPWrite: "pmp-write", KAttest: "attest",
	KBatchBegin: "batch-begin", KBatchEnd: "batch-end",
	KDrainBegin: "drain-begin", KDrainEnd: "drain-end",
	KShootdownFor: "shootdown-for",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Transition kinds (KTransition.Size). TransDispatch is the
// scheduler's resume path: a monitor-mediated transition that
// restores a preempted vCPU's saved state instead of entering at the
// fixed entry point. The checker counts it as an ordinary mediated
// transition, and the dead-domain-silence property over KTransition
// is what proves a killed domain is never dispatched again.
const (
	TransLaunch uint64 = iota
	TransCall
	TransReturn
	TransFast
	TransDispatch
)

// Operation codes (KOpBegin/KOpEnd.Aux).
const (
	OpShare uint64 = iota
	OpGrant
	OpRevoke
	OpKill
)

// Event is one traced platform event. All payload fields are scalars so
// emission never chases pointers; their meaning is per-Kind (see the
// Kind constants).
type Event struct {
	// Seq is the global emission sequence number (1-based).
	Seq uint64
	// Cycle is the sharded cycle clock's aggregate at emission.
	Cycle uint64
	// Core is the emitting core, or GlobalCore for monitor context.
	Core int32
	// Kind classifies the event.
	Kind Kind

	Domain uint64
	Aux    uint64
	Node   uint64
	Addr   uint64
	Size   uint64
}

func (e Event) String() string {
	return fmt.Sprintf("#%d @%d c%d %s dom=%d aux=%d node=%d addr=%#x size=%d",
		e.Seq, e.Cycle, e.Core, e.Kind, e.Domain, e.Aux, e.Node, e.Addr, e.Size)
}

// Sink receives every event at emission time, in Seq order — one
// linearisation of the run, suitable for online checking. Sinks must
// not call back into the Tracer.
type Sink interface {
	Event(Event)
}

// ring is one bounded event buffer holding Event values: an emission
// copies into a slot and allocates nothing once the ring has grown to
// its capacity. Until it holds ringEager events slots grows as a slice
// does, so building a tracer costs nothing and a ring that sees few
// events stays small; its next growth takes the whole capacity in one
// step, so a busy ring stops making garbage after a handful of
// doublings rather than at every one of them up to its capacity. The
// oldest events are overwritten once the ring wraps. Like its tracer,
// it is used by one goroutine at a time and holds no lock.
type ring struct {
	slots []Event
	max   int    // capacity: len(slots) never exceeds it
	pos   uint64 // events appended so far
}

// append stores ev.
func (r *ring) append(ev *Event) {
	if n := len(r.slots); n < r.max {
		if n == cap(r.slots) && n >= ringEager {
			r.slots = append(make([]Event, 0, r.max), r.slots...)
		}
		r.slots = append(r.slots, *ev)
	} else {
		r.slots[r.pos%uint64(r.max)] = *ev
	}
	r.pos++
}

// DefaultRingEntries is the per-ring capacity when New is given 0.
const DefaultRingEntries = 4096

// ringEager is the length from which a growing ring allocates its whole
// capacity at once.
const ringEager = 256

// Tracer records events into one ring per core plus one for global
// (monitor/device) context.
type Tracer struct {
	cycles func() uint64
	rings  []*ring // rings[0] = global, rings[c+1] = core c

	// seq is the last sequence number drawn.
	seq uint64

	sinks []Sink
}

// New returns a tracer for a machine with the given core count.
// perRing is each ring's capacity (DefaultRingEntries when 0); cycles
// supplies timestamps (the machine clock's aggregate read) and may be
// nil for untimed traces.
func New(cores, perRing int, cycles func() uint64) *Tracer {
	if perRing <= 0 {
		perRing = DefaultRingEntries
	}
	t := &Tracer{cycles: cycles}
	for i := 0; i < cores+1; i++ {
		t.rings = append(t.rings, &ring{max: perRing})
	}
	return t
}

// Attach registers a sink: it receives every event emitted from now
// on, in Seq order.
func (t *Tracer) Attach(s Sink) {
	t.sinks = append(t.sinks, s)
}

// AttachSharded is Attach, kept for benchmark/, which still compiles
// against the name.
func (t *Tracer) AttachSharded(s Sink) { t.Attach(s) }

// Emit records one event. core is the emitting core or GlobalCore.
func (t *Tracer) Emit(core int32, k Kind, domain, aux, node, addr, size uint64) {
	ri := 0
	if n := int(core) + 1; n >= 1 && n < len(t.rings) {
		ri = n
	}
	ev := Event{
		Core: core, Kind: k,
		Domain: domain, Aux: aux, Node: node, Addr: addr, Size: size,
	}
	if t.cycles != nil {
		ev.Cycle = t.cycles()
	}
	t.seq++
	ev.Seq = t.seq
	t.rings[ri].append(&ev)
	for _, s := range t.sinks {
		s.Event(ev)
	}
}

// Len returns the number of events emitted so far (including any the
// rings have since overwritten).
func (t *Tracer) Len() uint64 { return t.seq }

// Dropped returns how many events have been overwritten by ring wrap.
func (t *Tracer) Dropped() uint64 {
	var dropped uint64
	for _, r := range t.rings {
		dropped += r.pos - uint64(len(r.slots)) // all but the last max
	}
	return dropped
}

// Events snapshots every buffered event across all rings, sorted by
// sequence number.
func (t *Tracer) Events() []Event {
	var out []Event
	for _, r := range t.rings {
		out = append(out, r.slots...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
