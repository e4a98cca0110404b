package hw

import "github.com/tyche-sim/tyche/internal/phys"

// Fault injection hooks. The simulated hardware consults an optional
// FaultInjector at the points where real silicon fails: memory accesses
// (machine checks, hard core stalls), the interrupt controller (lost
// and spurious lines), and — via internal/tpm's quote hook — the root
// of trust. The injector lives in internal/fault; hw only defines the
// interface so the dependency points outward.
//
// Determinism contract: hardware calls the injector at architecturally
// ordered points. Per-core events (OnAccess) are ordered by that core's
// own instruction stream, so a countdown over them replays exactly.
// Machine-wide events (IRQ raise/take) are ordered by the one goroutine
// driving the machine.

// FaultAction is the outcome of consulting the injector for one access.
type FaultAction int

// Fault actions.
const (
	// FaultNone lets the access proceed normally.
	FaultNone FaultAction = iota
	// FaultAbort aborts the access with a machine check (TrapMachineCheck);
	// the core survives and can be rescheduled.
	FaultAbort
	// FaultStall poisons the core: this access and every subsequent step
	// raise TrapMachineCheck until ClearStall — a hard core crash.
	FaultStall
)

func (a FaultAction) String() string {
	switch a {
	case FaultNone:
		return "none"
	case FaultAbort:
		return "abort"
	case FaultStall:
		return "stall"
	}
	return "action(?)"
}

// FaultInjector is the hardware-facing fault hook: every core consults
// OnAccess, and the interrupt controller the other two.
type FaultInjector interface {
	// OnAccess is consulted before each guest memory access (including
	// instruction fetch) on core. It returns the action to take.
	OnAccess(core phys.CoreID, a phys.Addr, want Perm) FaultAction
	// OnRaiseIRQ is consulted when dev raises vector; returning true
	// drops the interrupt (a lost line).
	OnRaiseIRQ(dev phys.DeviceID, vector uint32) bool
	// TakeSpuriousIRQ is consulted on each controller poll; it may
	// return a phantom interrupt to deliver ahead of the real queue.
	TakeSpuriousIRQ() (IRQ, bool)
}

// SetFaultInjector installs (or, with nil, removes) the machine's fault
// injector.
func (m *Machine) SetFaultInjector(f FaultInjector) { m.fault = f }

// FaultInjector returns the installed injector, or nil.
func (m *Machine) FaultInjector() FaultInjector { return m.fault }
