package core

import (
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// Trace emission. Every emit site sits at the exact commit point where
// the corresponding Stats counter is updated, so event-derived counts
// (trace/check.Counts) and Monitor.Stats() are two independent tallies
// of the same history — the checker cross-validates them. Operation
// frames (KOpBegin/KOpEnd) carry a token in their Node field so the
// checker matches each frame's two ends exactly.

// emit records a monitor-context event.
func (m *Monitor) emit(k trace.Kind, domain DomainID, aux, node, addr, size uint64) {
	m.mach.Trace(trace.GlobalCore, k, uint64(domain), aux, node, addr, size)
}

// emitCore records an event attributed to a specific core.
func (m *Monitor) emitCore(core phys.CoreID, k trace.Kind, domain DomainID, aux, node, addr, size uint64) {
	m.mach.Trace(int32(core), k, uint64(domain), aux, node, addr, size)
}
