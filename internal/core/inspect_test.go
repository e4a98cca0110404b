package core

import "github.com/tyche-sim/tyche/internal/tpm"

// Inspection the tests read the monitor through beside its API.

// Measurement returns the measurement computed at seal time; the zero
// digest before sealing.
func (d *Domain) Measurement() tpm.Digest { return d.measurement }

// RingPending returns how many descriptors are enqueued but not yet
// drained on the domain's ring (0 with no ring) — a test and
// diagnostics hook.
func (m *Monitor) RingPending(id DomainID) uint64 {
	r, ok := m.rings[id]
	if !ok {
		return 0
	}
	tail, err := m.mach.Mem.Read64(r.base + RingOffSQTail)
	if err != nil {
		return 0
	}
	return tail - r.head
}
