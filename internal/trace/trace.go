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
// Cost model. Tracing is off by default: the machine holds an atomic
// tracer pointer and every emit site is a nil-check branch, so the
// disabled path costs one atomic load and a branch — in every build:
// there is one, and the binary that is tested is the binary that can be
// verified (benchmark/ prices both states as trace.emit_ns and
// bench.trace_overhead_pct). Enabled, an emit builds the event on the
// stack and copies it into its ring under that ring's lock — nothing is
// allocated once the ring has grown to its capacity, and no lock is
// shared between cores unless a Sink is attached, in which case
// emission serialises on the sink mutex so checkers observe one
// linearisation of the run.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
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
	// victim, Aux = OpShare..OpKill, Node = frame token. Delegations run
	// concurrently from reader entries, so frames may interleave — the
	// token pairs each end with its begin — and they may nest (a kill
	// revokes).
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
	// checker still sees every op; deferred shootdowns coalesce into at
	// most one KShootdown round before the frame closes.
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

// Sink receives every event at emission time, serialised under the
// tracer's sink mutex — one linearisation of the run, suitable for
// online checking. Sinks must not call back into the Tracer.
type Sink interface {
	Event(Event)
}

// ShardSink receives events per ring, WITHOUT the tracer-wide sink
// mutex: shard is the ring index the event landed in (0 = global
// context, c+1 = core c). Calls for different shards run concurrently;
// calls for the same shard may too (the global ring takes emissions
// from every core), so implementations synchronise per shard — which
// is exactly what keeps the hot emit path unserialised. A ShardSink
// may read Tracer.Len but must not otherwise call back into the
// Tracer.
type ShardSink interface {
	ShardEvent(shard int, ev Event)
}

// shardHolder boxes the interface so it can live in an atomic.Pointer.
type shardHolder struct{ s ShardSink }

// ring is one bounded event buffer holding Event values: an emission
// copies into a slot and allocates nothing once the ring has grown to
// its capacity. Until it holds ringEager events slots grows as a slice
// does, so building a tracer costs nothing and a ring that sees few
// events stays small; its next growth takes the whole capacity in one
// step, so a busy ring stops making garbage after a handful of
// doublings rather than at every one of them up to its capacity. mu
// orders emitters into the ring and lets a reader copy whole events out
// while they run; on a core's own ring it is uncontended. The oldest
// events are overwritten once the ring wraps.
type ring struct {
	mu    sync.Mutex
	slots []Event
	max   int    // capacity: len(slots) never exceeds it
	pos   uint64 // events appended so far
}

// append stamps ev with the next global sequence number and stores it.
// Stamping inside the ring's critical section is what makes Seq rise
// strictly along a ring.
func (r *ring) append(ev *Event, seq *atomic.Uint64) {
	r.mu.Lock()
	ev.Seq = seq.Add(1)
	if n := len(r.slots); n < r.max {
		if n == cap(r.slots) && n >= ringEager {
			r.slots = append(make([]Event, 0, r.max), r.slots...)
		}
		r.slots = append(r.slots, *ev)
	} else {
		r.slots[r.pos%uint64(r.max)] = *ev
	}
	r.pos++
	r.mu.Unlock()
}

// DefaultRingEntries is the per-ring capacity when New is given 0.
const DefaultRingEntries = 4096

// ringEager is the length from which a growing ring allocates its whole
// capacity at once.
const ringEager = 256

// Tracer records events into one ring per core plus one for global
// (monitor/device) context. It is safe for concurrent use by every
// core, the monitor, and devices.
type Tracer struct {
	cycles func() uint64
	rings  []*ring // rings[0] = global, rings[c+1] = core c

	seq atomic.Uint64

	// sharded is the per-ring sink (at most one), delivered to without
	// the sink mutex when no serial sinks are attached.
	sharded atomic.Pointer[shardHolder]

	hasSinks atomic.Bool
	mu       sync.Mutex
	sinks    []Sink
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

// Attach registers a sink. From now on emission serialises on the sink
// mutex so the sink observes a single total order.
func (t *Tracer) Attach(s Sink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sinks = append(t.sinks, s)
	t.hasSinks.Store(true)
}

// AttachSharded registers the per-ring sink (replacing any previous
// one). Unlike Attach, this does NOT put emission under the sink
// mutex: each event is handed to the ShardSink right after its ring
// store, concurrently across rings. When serial sinks are also
// attached, delivery happens inside the sink mutex after them, so
// both views agree on Seq order.
func (t *Tracer) AttachSharded(s ShardSink) {
	if s == nil {
		t.sharded.Store(nil)
		return
	}
	t.sharded.Store(&shardHolder{s: s})
}

// Rings returns the ring count (1 global + one per core) — the shard
// space a ShardSink must cover.
func (t *Tracer) Rings() int { return len(t.rings) }

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
	// Sink mode: sequence assignment, ring store, and delivery all
	// happen under one mutex so every sink sees emission order and Seq
	// agree exactly.
	serial := t.hasSinks.Load()
	if serial {
		t.mu.Lock()
	}
	t.rings[ri].append(&ev, &t.seq)
	if serial {
		for _, s := range t.sinks {
			s.Event(ev)
		}
	}
	if sh := t.sharded.Load(); sh != nil {
		sh.s.ShardEvent(ri, ev)
	}
	if serial {
		t.mu.Unlock()
	}
}

// Len returns the number of events emitted so far (including any the
// rings have since overwritten).
func (t *Tracer) Len() uint64 { return t.seq.Load() }

// Dropped returns how many events have been overwritten by ring wrap.
func (t *Tracer) Dropped() uint64 {
	var dropped uint64
	for _, r := range t.rings {
		r.mu.Lock()
		dropped += r.pos - uint64(len(r.slots)) // all but the last max
		r.mu.Unlock()
	}
	return dropped
}

// Events snapshots every buffered event across all rings, sorted by
// sequence number. Each ring is copied under its own lock, so with
// emitters running every event is whole and a ring's events are the
// last it took; rings are read one after another, not at one instant.
func (t *Tracer) Events() []Event {
	var out []Event
	for _, r := range t.rings {
		r.mu.Lock()
		out = append(out, r.slots...)
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
