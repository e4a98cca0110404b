package core

import "github.com/tyche-sim/tyche/internal/tpm"

// Inspection the tests read the monitor through beside its API.

// Measurement returns the measurement computed at seal time; the zero
// digest before sealing.
func (d *Domain) Measurement() tpm.Digest {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.measurement
}

// RingPending returns how many descriptors are enqueued but not yet
// drained on the domain's ring (0 with no ring) — a test and
// diagnostics hook.
func (m *Monitor) RingPending(id DomainID) uint64 {
	// Look the ring up only after entering as a reader: a concurrent
	// RingSetup replaces the registration, and mixing the new ring's
	// tail with the old ring's head yields a garbage count.
	p := m.renter()
	defer m.rexit(p)
	r, ok := m.ringOf(id)
	if !ok {
		return 0
	}
	tail, err := m.mach.Mem.Read64(r.base + RingOffSQTail)
	if err != nil {
		return 0
	}
	return tail - r.head.Load()
}
