package oskit

import "github.com/tyche-sim/tyche/internal/hw"

// What the tests read the OS model through beside its API.

// Fault returns the fatal trap (valid once faulted).
func (p *Process) Fault() hw.Trap { return p.fault }

// Stats returns the OS event counters.
func (o *OS) Stats() Stats { return o.stats }
