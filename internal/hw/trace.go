package hw

import (
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// Event tracing hookup and the cross-core shootdown round. The machine
// owns the tracer the same way it owns the fault injector: an atomic
// pointer installed at run time, nil by default. Emit sites throughout
// hw, core, and the backends call Machine.Trace, a single atomic load
// and a nil check while no tracer is installed.
//
// Every shootdown — one region, a full flush, or a coalesced batch —
// runs as one shootdownRound, the only emitter of KShootdown and the
// only home of the tracebug and ackbug mutation hooks, so the checkers'
// shootdown properties audit one body.

// SetTracer installs (or, with nil, removes) the machine's event
// tracer. Installing emits the KBoot event that opens the trace and
// tells checkers the core count.
func (m *Machine) SetTracer(t *trace.Tracer) {
	if t == nil {
		m.tracer.Store(nil)
		return
	}
	m.tracer.Store(t)
	m.Trace(trace.GlobalCore, trace.KBoot, 0, 0, 0, 0, uint64(len(m.Cores)))
}

// Tracer returns the installed tracer, or nil.
func (m *Machine) Tracer() *trace.Tracer { return m.tracer.Load() }

// NewTracer builds a tracer sized for this machine whose timestamps
// read the machine's aggregate cycle clock. It is not installed;
// callers pass it to SetTracer (usually after attaching sinks).
func (m *Machine) NewTracer(perRing int) *trace.Tracer {
	return trace.New(len(m.Cores), perRing, m.Clock.Cycles)
}

// Trace emits one event if a tracer is installed.
func (m *Machine) Trace(core int32, k trace.Kind, domain, aux, node, addr, size uint64) {
	if t := m.tracer.Load(); t != nil {
		t.Emit(core, k, domain, aux, node, addr, size)
	}
}

// shootdownBatch accumulates the shootdowns requested while a batch is
// armed, so one cross-core round can retire them together.
type shootdownBatch struct {
	regions []phys.Region
	full    bool
	ops     int // logical shootdown requests absorbed
}

// ShootdownRegion invalidates a physical region from every core's TLB —
// the cross-core shootdown a revocation or a scrub triggers on real
// hardware via IPIs. While a shootdown batch is armed
// (BeginShootdownBatch) the request is only recorded; the coalesced
// round runs at EndShootdownBatch.
func (m *Machine) ShootdownRegion(r phys.Region) {
	if b := m.sdBatch; b != nil {
		b.regions = append(b.regions, r)
		b.ops++
		return
	}
	m.shootdownRound([]phys.Region{r}, false)
}

// ShootdownAll flushes every core's entire TLB (the shootdown for
// non-memory resources and address-space-wide invalidations).
func (m *Machine) ShootdownAll() {
	if b := m.sdBatch; b != nil {
		b.full = true
		b.ops++
		return
	}
	m.shootdownRound(nil, true)
}

// BeginShootdownBatch arms shootdown coalescing: until the matching
// EndShootdownBatch, ShootdownRegion/ShootdownAll only record what must
// be invalidated. The caller must hold whatever lock serialises all
// shootdown call sites (the monitor's revocation mutex); batches do not
// nest.
func (m *Machine) BeginShootdownBatch() {
	b := &m.sdBatchCache
	b.regions = b.regions[:0]
	b.full = false
	b.ops = 0
	m.sdBatch = b
}

// EndShootdownBatch disarms coalescing and, if anything was recorded,
// performs ONE cross-core round over every accumulated region (or a
// full flush if any was requested) — the io_uring-style amortisation of
// revocation cost. It is the same round an unbatched request runs, so a
// batch that recorded exactly one region-shootdown is indistinguishable
// from the unbatched ShootdownRegion in events and cycles. Returns the
// number of rounds performed (0 or 1) and the number of logical
// shootdown requests coalesced into it.
func (m *Machine) EndShootdownBatch() (rounds, coalesced int) {
	b := m.sdBatch
	m.sdBatch = nil
	if b == nil || b.ops == 0 {
		return 0, 0
	}
	m.shootdownRound(phys.NormalizeRegions(b.regions), b.full)
	return 1, b.ops
}

// shootdownRound is the one cross-core shootdown round: a single
// KShootdown, then each core invalidates regions (its whole TLB when
// full) for one per-core IPI+flush charge of CostModel.TLBFlush and acks
// with one KShootdownAck. The event names the region when there is
// exactly one and no full flush, else 0/0. The enclosing monitor
// operation must not return before every core has acked (the trace
// checker enforces this).
func (m *Machine) shootdownRound(regions []phys.Region, full bool) {
	var addr, size uint64
	if !full && len(regions) == 1 {
		addr, size = uint64(regions[0].Start), regions[0].Size()
	}
	m.Trace(trace.GlobalCore, trace.KShootdown, 0, 0, 0, addr, size)
	for i, c := range m.Cores {
		if shootdownSkipLast && i == len(m.Cores)-1 {
			// Seeded mutation (tracebug build tag): the last core keeps
			// its stale translations and never acks.
			continue
		}
		if full {
			c.tlb.Flush()
		} else {
			for _, r := range regions {
				c.tlb.FlushRegion(r)
			}
		}
		m.Clock.Advance(m.Cost.TLBFlush)
		if ackDropOne && i == 0 && m.ackSwallowed.CompareAndSwap(false, true) {
			// Seeded mutation (ackbug build tag): the flush ran but the
			// acknowledgement is lost — the round completes short.
			continue
		}
		m.Trace(trace.GlobalCore, trace.KShootdownAck, 0, uint64(i), 0, addr, size)
	}
}
