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
// Every shootdown an operation records — regions, full flushes or both
// — runs in its one shootdownRound, the only emitter of KShootdown and
// the only home of the tracebug, ackbug and rangebug mutation hooks, so
// the checkers' shootdown properties audit one body.

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

// shootdowns accumulates the shootdowns a monitor operation requests,
// so that the operation's one cross-core round retires them together.
type shootdowns struct {
	regions []phys.Region
	domains []uint64
	full    bool
	ops     int // logical shootdown requests absorbed
}

// ShootdownRegion records that a physical region must be invalidated
// from the TLB of every core that may cache a translation of one of
// domains — the domains that lost access to it — the cross-core
// shootdown a revocation or a scrub triggers on real hardware via IPIs.
// The round runs at the enclosing monitor operation's FlushShootdowns.
func (m *Machine) ShootdownRegion(r phys.Region, domains ...uint64) {
	p := &m.shootdowns
	p.regions = append(p.regions, r)
	p.domains = append(p.domains, domains...)
	p.ops++
}

// ShootdownAll records that the entire TLB of every core that may cache
// a translation of one of domains must be flushed (the shootdown for
// non-memory resources and address-space-wide invalidations).
func (m *Machine) ShootdownAll(domains ...uint64) {
	p := &m.shootdowns
	p.domains = append(p.domains, domains...)
	p.full = true
	p.ops++
}

// FlushShootdowns is the one flush of the shootdown accumulator: if
// anything was recorded since the last flush it performs ONE cross-core
// round over every recorded region (or a full flush if any was
// requested) for the union of the recorded domains, then empties the
// accumulator. A monitor operation runs on one goroutine with no guest
// step inside it, so the operation that took access away calls it once
// before its frame closes. Returns the number of rounds performed (0 or
// 1) and the number of logical shootdown requests coalesced into it.
func (m *Machine) FlushShootdowns() (rounds, coalesced int) {
	p := &m.shootdowns
	if p.ops == 0 {
		return 0, 0
	}
	slices.Sort(p.domains)
	p.domains = slices.Compact(p.domains)
	p.regions = phys.NormalizeInPlace(p.regions)
	m.shootdownRound(p.regions, p.full, p.domains)
	coalesced = p.ops
	p.regions, p.domains, p.full, p.ops = p.regions[:0], p.domains[:0], false, 0
	return 1, coalesced
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
