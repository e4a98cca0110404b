package sched

import (
	"slices"

	"github.com/tyche-sim/tyche/internal/phys"
)

// What the tests read the scheduler through beside its API.

// Quantum returns a vCPU's time slice in instructions.
func (s *Scheduler) Quantum() int { return s.pol.quantum() }

// Depth returns core's current queue depth.
func (s *Scheduler) Depth(c phys.CoreID) int { return len(s.queues[c]) }

// Latencies returns the per-dispatch queue latency samples (cycles
// between enqueue and the dispatch decision).
func (s *Scheduler) Latencies() []uint64 { return slices.Clone(s.lats) }
