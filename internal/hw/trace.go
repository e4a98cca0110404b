package hw

import (
	"math/bits"
	"slices"

	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// Event tracing hookup and the cross-core shootdown round. The machine
// owns the tracer the same way it owns the fault injector: a field
// installed at run time, nil by default. Emit sites throughout hw, core,
// and the backends call Machine.Trace, a nil check while no tracer is
// installed.
//
// Every shootdown — one region, a full flush, or a coalesced batch —
// runs as one shootdownRound, the only emitter of KShootdown and the
// only home of the tracebug, ackbug and rangebug mutation hooks, so the
// checkers' shootdown properties audit one body.

// SetTracer installs (or, with nil, removes) the machine's event
// tracer. Installing emits the KBoot event that opens the trace and
// tells checkers the core count.
func (m *Machine) SetTracer(t *trace.Tracer) {
	m.tracer = t
	if t == nil {
		return
	}
	m.Trace(trace.GlobalCore, trace.KBoot, 0, 0, 0, 0, uint64(len(m.Cores)))
}

// Tracer returns the installed tracer, or nil.
func (m *Machine) Tracer() *trace.Tracer { return m.tracer }

// NewTracer builds a tracer sized for this machine whose timestamps
// read the machine's aggregate cycle clock. It is not installed;
// callers pass it to SetTracer (usually after attaching sinks).
func (m *Machine) NewTracer(perRing int) *trace.Tracer {
	return trace.New(len(m.Cores), perRing, m.Clock.Cycles)
}

// Trace emits one event if a tracer is installed.
func (m *Machine) Trace(core int32, k trace.Kind, domain, aux, node, addr, size uint64) {
	if t := m.tracer; t != nil {
		t.Emit(core, k, domain, aux, node, addr, size)
	}
}

// shootdownBatch accumulates the shootdowns requested while a batch is
// armed, so one cross-core round can retire them together.
type shootdownBatch struct {
	regions []phys.Region
	domains []uint64
	full    bool
	ops     int // logical shootdown requests absorbed
}

// ShootdownRegion invalidates a physical region from the TLB of every
// core that may cache a translation of one of domains — the domains
// that lost access to it — the cross-core shootdown a revocation or a
// scrub triggers on real hardware via IPIs. While a shootdown batch is
// armed (BeginShootdownBatch) the request is only recorded; the
// coalesced round runs at EndShootdownBatch.
func (m *Machine) ShootdownRegion(r phys.Region, domains ...uint64) {
	if b := m.sdBatch; b != nil {
		b.regions = append(b.regions, r)
		b.domains = append(b.domains, domains...)
		b.ops++
		return
	}
	m.shootdownRound([]phys.Region{r}, false, domains)
}

// ShootdownAll flushes the entire TLB of every core that may cache a
// translation of one of domains (the shootdown for non-memory resources
// and address-space-wide invalidations).
func (m *Machine) ShootdownAll(domains ...uint64) {
	if b := m.sdBatch; b != nil {
		b.domains = append(b.domains, domains...)
		b.full = true
		b.ops++
		return
	}
	m.shootdownRound(nil, true, domains)
}

// BeginShootdownBatch arms shootdown coalescing: until the matching
// EndShootdownBatch, ShootdownRegion/ShootdownAll only record what must
// be invalidated and for whom. Batches do not nest.
func (m *Machine) BeginShootdownBatch() {
	b := &m.sdBatchCache
	b.regions = b.regions[:0]
	b.domains = b.domains[:0]
	b.full = false
	b.ops = 0
	m.sdBatch = b
}

// EndShootdownBatch disarms coalescing and, if anything was recorded,
// performs ONE cross-core round over every accumulated region (or a
// full flush if any was requested) for the union of the accumulated
// domains — the io_uring-style amortisation of revocation cost. It is
// the same round an unbatched request runs, so a batch that recorded
// exactly one region-shootdown is indistinguishable from the unbatched
// ShootdownRegion in events and cycles. Returns the number of rounds
// performed (0 or 1) and the number of logical shootdown requests
// coalesced into it.
func (m *Machine) EndShootdownBatch() (rounds, coalesced int) {
	b := m.sdBatch
	m.sdBatch = nil
	if b == nil || b.ops == 0 {
		return 0, 0
	}
	slices.Sort(b.domains)
	b.domains = slices.Compact(b.domains)
	m.shootdownRound(phys.NormalizeRegions(b.regions), b.full, b.domains)
	return 1, b.ops
}

// shootdownRound is the one cross-core shootdown round. It targets the
// cores resident for any of domains (Core.residentFor): a core that has
// not loaded one of their contexts since its last whole flush holds no
// translation of theirs to invalidate. One KShootdown names the first
// domain, the targeted cores as a mask, whether the round flushes whole
// TLBs, and the region when there is exactly one and no full flush
// (else 0/0); one KShootdownFor names each further domain. Then each
// targeted core invalidates regions (its whole TLB when full) for one
// per-core IPI+flush charge of CostModel.TLBFlush and acks with one
// KShootdownAck. A round that targets no core is still emitted and
// costs nothing. The enclosing monitor operation must not return
// before every targeted core has acked, and every core the trace shows
// resident for one of domains must be targeted (the trace checker
// enforces both).
func (m *Machine) shootdownRound(regions []phys.Region, full bool, domains []uint64) {
	var addr, size, first, whole, targets uint64
	if !full && len(regions) == 1 {
		addr, size = uint64(regions[0].Start), regions[0].Size()
	}
	if full {
		whole = 1
	}
	var rest []uint64
	if len(domains) > 0 {
		first, rest = domains[0], domains[1:]
	}
	for i, c := range m.Cores {
		if c.residentFor(domains...) {
			targets |= 1 << i
		}
	}
	if rangeSkipOne && targets != 0 {
		// Seeded mutation (rangebug build tag): the round leaves out
		// the highest resident core, which keeps its translations.
		targets &^= 1 << (bits.Len64(targets) - 1)
	}
	m.Trace(trace.GlobalCore, trace.KShootdown, first, targets, whole, addr, size)
	for _, d := range rest {
		m.Trace(trace.GlobalCore, trace.KShootdownFor, d, 0, 0, addr, size)
	}
	for i, c := range m.Cores {
		if targets&(1<<i) == 0 {
			continue
		}
		if shootdownSkipLast && i == len(m.Cores)-1 {
			// Seeded mutation (tracebug build tag): the last core is
			// targeted but keeps its stale translations and never acks.
			continue
		}
		c.invalidate(regions, full)
		m.Clock.Advance(m.Cost.TLBFlush)
		if ackDropOne && i == 0 && !m.ackSwallowed {
			m.ackSwallowed = true
			// Seeded mutation (ackbug build tag): the flush ran but the
			// acknowledgement is lost — the round completes short.
			continue
		}
		m.Trace(trace.GlobalCore, trace.KShootdownAck, 0, uint64(i), 0, addr, size)
	}
}
