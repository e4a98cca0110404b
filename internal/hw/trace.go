package hw

import (
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// Event tracing hookup. The machine owns the tracer the same way it
// owns the fault injector: an atomic pointer installed at run time, nil
// by default. Emit sites throughout hw, core, and the backends call
// Machine.Trace, a single atomic load and a nil check while no tracer
// is installed.

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
// hardware via IPIs. Each core's flush costs CostModel.TLBFlush cycles
// and acknowledges with one trace event; the enclosing monitor
// operation must not return before every core has acked (the trace
// checker enforces this). While a shootdown batch is armed
// (BeginShootdownBatch) the request is only recorded; the coalesced
// round runs at EndShootdownBatch.
func (m *Machine) ShootdownRegion(r phys.Region) {
	if b := m.sdBatch; b != nil {
		b.regions = append(b.regions, r)
		b.ops++
		return
	}
	m.Trace(trace.GlobalCore, trace.KShootdown, 0, 0, 0, uint64(r.Start), r.Size())
	for i, c := range m.Cores {
		if shootdownSkipLast && i == len(m.Cores)-1 {
			// Seeded mutation (tracebug build tag): the last core keeps
			// its stale translations and never acks.
			continue
		}
		c.tlb.FlushRegion(r)
		m.Clock.Advance(m.Cost.TLBFlush)
		if ackDropOne && i == 0 && m.ackSwallowed.CompareAndSwap(false, true) {
			// Seeded mutation (ackbug build tag): the flush ran but the
			// acknowledgement is lost — the round completes short.
			continue
		}
		m.Trace(trace.GlobalCore, trace.KShootdownAck, 0, uint64(i), 0, uint64(r.Start), r.Size())
	}
}

// ShootdownAll flushes every core's entire TLB (the shootdown for
// non-memory resources and address-space-wide invalidations).
func (m *Machine) ShootdownAll() {
	if b := m.sdBatch; b != nil {
		b.full = true
		b.ops++
		return
	}
	m.Trace(trace.GlobalCore, trace.KShootdown, 0, 0, 0, 0, 0)
	for i, c := range m.Cores {
		if shootdownSkipLast && i == len(m.Cores)-1 {
			continue
		}
		c.tlb.Flush()
		m.Clock.Advance(m.Cost.TLBFlush)
		if ackDropOne && i == 0 && m.ackSwallowed.CompareAndSwap(false, true) {
			continue // Seeded mutation (ackbug): ack lost, flush done.
		}
		m.Trace(trace.GlobalCore, trace.KShootdownAck, 0, uint64(i), 0, 0, 0)
	}
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
// performs ONE cross-core round: a single KShootdown, each core
// invalidating every accumulated region (or its whole TLB if any full
// flush was requested) for a single per-core IPI+flush charge and one
// ack — the io_uring-style amortisation of revocation cost. A batch
// that recorded exactly one region-shootdown is indistinguishable in
// events and cycles from the unbatched ShootdownRegion, which is what
// keeps batch-of-1 latency identical to the synchronous path. Returns
// the number of rounds performed (0 or 1) and the number of logical
// shootdown requests coalesced into it.
func (m *Machine) EndShootdownBatch() (rounds, coalesced int) {
	b := m.sdBatch
	m.sdBatch = nil
	if b == nil || b.ops == 0 {
		return 0, 0
	}
	regions := phys.NormalizeRegions(b.regions)
	var addr, size uint64
	if !b.full && len(regions) == 1 {
		addr, size = uint64(regions[0].Start), regions[0].Size()
	}
	m.Trace(trace.GlobalCore, trace.KShootdown, 0, 0, 0, addr, size)
	for i, c := range m.Cores {
		if shootdownSkipLast && i == len(m.Cores)-1 {
			continue
		}
		if b.full {
			c.tlb.Flush()
		} else {
			for _, r := range regions {
				c.tlb.FlushRegion(r)
			}
		}
		m.Clock.Advance(m.Cost.TLBFlush)
		if ackDropOne && i == 0 && m.ackSwallowed.CompareAndSwap(false, true) {
			continue // Seeded mutation (ackbug): ack lost, flush done.
		}
		m.Trace(trace.GlobalCore, trace.KShootdownAck, 0, uint64(i), 0, addr, size)
	}
	return 1, b.ops
}
