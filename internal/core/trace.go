package core

import (
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// Trace emission. Every emit site sits at the exact commit point where
// the corresponding Stats counter is updated, so event-derived counts
// (trace/check.Counts) and Monitor.Stats() are two independent tallies
// of the same history — the checker cross-validates them. Emission
// costs one atomic load when no tracer is installed (see
// hw.Machine.Trace).
//
// Ordering: emit sites in reader entries run concurrently; when a
// checker is attached the sink mutex serialises events in real-time
// emission order. Operation frames (KOpBegin/KOpEnd) carry a token in
// their Node field so the checker matches interleaved frames exactly;
// events that the checker's invariants order strictly — shootdowns,
// scrubs, kills — are only emitted by destructive entries after their
// grace period, which waits out every reader that could emit against
// the pre-publish state.

// emit records a monitor-context event.
func (m *Monitor) emit(k trace.Kind, domain DomainID, aux, node, addr, size uint64) {
	m.mach.Trace(trace.GlobalCore, k, uint64(domain), aux, node, addr, size)
}

// emitCore records an event attributed to a specific core.
func (m *Monitor) emitCore(core phys.CoreID, k trace.Kind, domain DomainID, aux, node, addr, size uint64) {
	m.mach.Trace(int32(core), k, uint64(domain), aux, node, addr, size)
}
