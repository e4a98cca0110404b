package core

import (
	"errors"
	"fmt"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// The monitor mediates and validates all control transfers between
// domains (§3.1). A mediated Call saves the caller's cpu state, checks
// the target may run on the core, and enters the target at its fixed
// entry point; Return unwinds. FastSwitch is the VMFUNC path: a
// pre-authorised filter swap without a monitor exit. A transition is
// mediated unless RegisterFastPath registered its two endpoints as a
// pair: the pair is per core, dies with either endpoint, and is the
// only thing that ever enters a VMFUNC list.
//
// Concurrency: transitions are epoch-pinned reader entries (epoch.go)
// — they run concurrently with transitions on other cores, with
// delegations, and with the destructive family, whose irreversible
// effects wait out the pins.
// The per-core coreSched mutex serialises transitions on one core;
// cores never touch each other's scheduling state, so the transition
// path has no cross-core contention at all.

// ErrCallDepth reports an attempt to return with no caller frame.
var ErrCallDepth = errors.New("core: call stack empty")

// Current returns the domain currently installed on the core. The
// installed hardware context is authoritative: guest-level VMFUNC
// switches change it without a monitor exit, exactly as on real
// hardware — the monitor only learns at the next trap.
func (m *Monitor) Current(core phys.CoreID) (DomainID, bool) {
	sc, ok := m.sched[core]
	if !ok {
		return 0, false
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return m.currentDomain(core, sc)
}

// currentDomain is Current with the core's scheduling lock held.
func (m *Monitor) currentDomain(core phys.CoreID, sc *coreSched) (DomainID, bool) {
	if c := m.mach.Core(core); c != nil && c.Context() != nil {
		return DomainID(c.Context().Owner), true
	}
	return sc.cur, sc.hasCur
}

// validateEntry establishes what entering id on core requires — the
// domain is live, has an entry point, and may run on the core — and
// returns the entry point and the ring it is entered in.
func (m *Monitor) validateEntry(id DomainID, core phys.CoreID) (phys.Addr, hw.Ring, error) {
	d, err := m.liveDomain(id)
	if err != nil {
		return 0, 0, err
	}
	entry, entrySet := d.Entry()
	if !entrySet {
		return 0, 0, fmt.Errorf("%w: domain %d", ErrNoEntry, id)
	}
	if !m.space.OwnerHasCore(cap.OwnerID(id), core) {
		return 0, 0, m.deny("domain %d may not run on %v", id, core)
	}
	return entry, d.EntryRing(), nil
}

// Launch starts the initial domain (or any domain with an entry point)
// on a core with an empty call stack — boot-time scheduling.
func (m *Monitor) Launch(id DomainID, core phys.CoreID) error {
	return m.launch(id, core, VCPU{})
}

// launch is Launch on behalf of vCPU v (none for the zero VCPU): the
// core remembers which vCPU it runs, the only one PreemptVCPU saves.
func (m *Monitor) launch(id DomainID, core phys.CoreID, v VCPU) error {
	p := m.renter()
	defer m.rexit(p)
	entry, ring, err := m.validateEntry(id, core)
	if err != nil {
		return err
	}
	// A validated core capability names a machine core: only Boot mints
	// core roots, one per core.
	c, sc := m.mach.Core(core), m.sched[core]
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if err := m.bk.Transition(c, cap.OwnerID(id), false); err != nil {
		return err
	}
	c.PC = entry
	c.Regs = [hw.NumRegs]uint64{}
	c.Ring = ring
	sc.cur, sc.hasCur, sc.vcpu = id, true, v
	sc.frames = sc.frames[:0]
	m.stats.transitions.Add(1)
	m.emitCore(core, trace.KTransition, id, 0, 0, 0, trace.TransLaunch)
	return nil
}

// Call transfers control on core from the current domain to target,
// entering at target's fixed entry point with argument registers
// r0..r5 copied from the caller. The transfer is validated: the target
// must be live, runnable on the core, and have an entry point. The
// target's record is read under the core lock (coreSched.mu →
// Domain.mu, the documented order).
func (m *Monitor) Call(core phys.CoreID, target DomainID) error {
	p := m.renter()
	defer m.rexit(p)
	sc, ok := m.sched[core]
	if !ok {
		return fmt.Errorf("core: no core %v", core)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	entry, ring, err := m.validateEntry(target, core)
	if err != nil {
		return err
	}
	cur, running := m.currentDomain(core, sc)
	if !running {
		return fmt.Errorf("%w: %v", ErrNotRunning, core)
	}
	c := m.mach.Core(core)
	// Save the caller's register state into its context.
	curCtx, err := m.bk.Context(cap.OwnerID(cur), core)
	if err != nil {
		return err
	}
	c.SaveInto(curCtx)
	// Enter the target: argument registers carry over.
	var args [6]uint64
	copy(args[:], c.Regs[:6])
	if err := m.bk.Transition(c, cap.OwnerID(target), false); err != nil {
		return err
	}
	c.Regs = [hw.NumRegs]uint64{}
	copy(c.Regs[:6], args[:])
	c.PC = entry
	c.Ring = ring
	sc.frames = append(sc.frames, cur)
	sc.cur, sc.hasCur = target, true
	m.stats.transitions.Add(1)
	m.emitCore(core, trace.KTransition, target, uint64(cur), 0, 0, trace.TransCall)
	return nil
}

// Return unwinds one mediated call: control goes back to the caller
// domain, which resumes after its call site. Registers r0 and r1 of the
// returning domain are delivered to the caller as return values. The
// frame is popped before the caller's liveness is established: a caller
// that died while the callee ran leaves the core with nowhere to return
// to.
func (m *Monitor) Return(core phys.CoreID) error {
	p := m.renter()
	defer m.rexit(p)
	sc, ok := m.sched[core]
	if !ok {
		return fmt.Errorf("core: no core %v", core)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.frames) == 0 {
		return ErrCallDepth
	}
	caller := sc.frames[len(sc.frames)-1]
	sc.frames = sc.frames[:len(sc.frames)-1]
	c := m.mach.Core(core)
	ret0, ret1 := c.Regs[0], c.Regs[1]
	returning, _ := m.currentDomain(core, sc)
	if _, err := m.liveDomain(caller); err != nil {
		return err
	}
	callerCtx, err := m.bk.Context(cap.OwnerID(caller), core)
	if err != nil {
		return err
	}
	if err := m.bk.Transition(c, cap.OwnerID(caller), false); err != nil {
		return err
	}
	c.RestoreFrom(callerCtx)
	c.Regs[0], c.Regs[1] = ret0, ret1
	sc.cur, sc.hasCur = caller, true
	m.stats.transitions.Add(1)
	m.emitCore(core, trace.KTransition, caller, uint64(returning), 0, 0, trace.TransReturn)
	return nil
}

// RegisterFastPath authorises VMFUNC-style fast switches between two
// domains on a core. Both must be runnable on the core; the monitor
// validates once, then the hardware switches without monitor exits —
// "accelerate existing operations with hardware, such as fast (100
// cycles) domain transitions using VMFUNC" (§4.1).
func (m *Monitor) RegisterFastPath(caller DomainID, a, b DomainID, core phys.CoreID) error {
	p := m.renter()
	defer m.rexit(p)
	if _, err := m.liveDomain(caller); err != nil {
		return err
	}
	if caller != a && caller != b {
		return m.deny("domain %d is not an endpoint of the fast path", caller)
	}
	for _, id := range []DomainID{a, b} {
		if _, err := m.liveDomain(id); err != nil {
			return err
		}
		if !m.space.OwnerHasCore(cap.OwnerID(id), core) {
			return m.deny("domain %d may not run on %v", id, core)
		}
	}
	return m.bk.RegisterFastPair(core, cap.OwnerID(a), cap.OwnerID(b))
}

// FastSwitch performs a pre-authorised fast transition to target on
// core, jumping to target's entry point. Register state carries over
// entirely (the fast path trades register hygiene for speed; domains
// using it share a protocol, like Hodor-style data-plane libraries).
func (m *Monitor) FastSwitch(core phys.CoreID, target DomainID) error {
	p := m.renter()
	defer m.rexit(p)
	td, err := m.liveDomain(target)
	if err != nil {
		return err
	}
	entry, entrySet := td.Entry()
	if !entrySet {
		return fmt.Errorf("%w: domain %d", ErrNoEntry, target)
	}
	sc, ok := m.sched[core]
	if !ok {
		return fmt.Errorf("core: no core %v", core)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	from, running := m.currentDomain(core, sc)
	if !running {
		return fmt.Errorf("%w: %v", ErrNotRunning, core)
	}
	c := m.mach.Core(core)
	if err := m.bk.Transition(c, cap.OwnerID(target), true); err != nil {
		return err
	}
	c.PC = entry
	sc.cur, sc.hasCur = target, true
	m.stats.fastSwitches.Add(1)
	m.emitCore(core, trace.KTransition, target, uint64(from), 0, 0, trace.TransFast)
	return nil
}

// RunResult describes why RunCore stopped.
type RunResult struct {
	// Steps is the number of instructions retired across all domains.
	Steps int
	// Trap is the final trap (TrapHalt with an empty call stack, a
	// fault, or TrapNone when the budget ran out).
	Trap hw.Trap
	// Domain is the domain that was running when RunCore stopped.
	Domain DomainID
	// Yielded reports that the run stopped because the guest invoked
	// CallYield — a cooperative hand-back to the embedding scheduler.
	Yielded bool
}

// RunCore drives guest execution on a core, dispatching traps:
//
//   - VMCall: decoded per the guest ABI (abi.go) and handled; the
//     monitor charges a VM exit + entry round trip.
//   - Syscall: dispatched to the current domain's registered Go-level
//     kernel handler — an intra-domain event the monitor stays out of.
//   - Halt: treated as an implicit Return when the core has caller
//     frames (an enclave completing its call), else RunCore stops.
//   - Fault/Illegal: execution stops and the trap is reported; policy
//     belongs to the embedding system, not the monitor.
//
// RunCore itself holds no monitor lock: guest execution between traps
// is always lock-free, and each trap handler takes exactly the locks
// its operation needs (pinned reader entries for most; the destructive
// entry for fault containment). Cores running independent workloads
// therefore do not serialise on monitor entries at all, and RunCore is
// safe to call for different cores from different goroutines.
func (m *Monitor) RunCore(core phys.CoreID, budget int) (RunResult, error) {
	r, err := m.startRun(core, budget)
	if err != nil {
		return RunResult{}, err
	}
	r.step(budget) // a slice as long as the budget runs to the end
	return r.res, r.err
}

// coreRun is one core's RunCore in progress. RunSlices interleaves
// several on one goroutine by calling step with a quantum; a run cut
// into slices retires the same instructions, handles the same traps and
// polls the interrupt controller at the same points as the uncut run.
type coreRun struct {
	m      *Monitor
	id     phys.CoreID
	c      *hw.Core
	sc     *coreSched
	budget int
	res    RunResult
	err    error
	done   bool
	mid    bool // the last slice ended inside a Run: resume without an IRQ poll
}

// startRun begins a run on a core with a domain installed.
func (m *Monitor) startRun(core phys.CoreID, budget int) (coreRun, error) {
	c := m.mach.Core(core)
	if c == nil {
		return coreRun{}, fmt.Errorf("core: no core %v", core)
	}
	if _, ok := m.Current(core); !ok {
		return coreRun{}, fmt.Errorf("%w: %v", ErrNotRunning, core)
	}
	return coreRun{m: m, id: core, c: c, sc: m.sched[core], budget: budget}, nil
}

// cur is the domain running on the core. The installed context decides
// attribution: guest VMFUNC switches change the running domain without
// informing the monitor.
func (r *coreRun) cur() DomainID {
	if ctx := r.c.Context(); ctx != nil {
		return DomainID(ctx.Owner)
	}
	r.sc.mu.Lock()
	defer r.sc.mu.Unlock()
	return r.sc.cur
}

// stop ends the run with its final trap, attribution and error.
func (r *coreRun) stop(trap hw.Trap, dom DomainID, err error) bool {
	r.res.Trap, r.res.Domain, r.err, r.done = trap, dom, err, true
	return true
}

// step runs the core for at most n more instructions and reports
// whether the run is over: a trap RunCore stops at, an error, or the
// budget spent.
func (r *coreRun) step(n int) bool {
	m, c, core := r.m, r.c, r.id
	limit := min(r.res.Steps+n, r.budget)
	for r.res.Steps < limit {
		// Route pending device interrupts before resuming guest code:
		// IRQs raised by drivers or handlers during the previous trap
		// window are delivered at the next entry, like real injection.
		if r.mid {
			r.mid = false
		} else if err := m.routeIRQs(c); err != nil {
			return r.stop(hw.Trap{}, r.cur(), err)
		}
		k, trap := c.Run(limit - r.res.Steps)
		r.res.Steps += k
		dom := r.cur() // the domain the trap came from
		var err error
		switch trap.Kind {
		case hw.TrapNone:
			if r.mid = r.res.Steps < r.budget; r.mid {
				return false // the slice is spent, not the run
			}
		case hw.TrapHalt:
			r.sc.mu.Lock()
			depth := len(r.sc.frames)
			r.sc.mu.Unlock()
			if depth > 0 {
				if err = m.Return(core); err == nil {
					continue
				}
			}
		case hw.TrapVMCall:
			m.mach.Clock.Advance(m.mach.Cost.VMExit)
			m.stats.vmExits.Add(1)
			stop := m.handleVMCall(c, core)
			m.mach.Clock.Advance(m.mach.Cost.VMEntry)
			if !stop {
				continue
			}
			// The only stopping VMCall is CallYield: a cooperative
			// hand-back to the embedding scheduler, which sees Yielded.
			r.res.Yielded = true
		case hw.TrapSyscall:
			m.mach.Clock.Advance(m.mach.Cost.Syscall)
			m.stats.syscalls.Add(1)
			var handler SyscallHandler
			if d, ok := m.tab.Load().get(dom); ok {
				d.mu.Lock()
				handler = d.syscall
				d.mu.Unlock()
			}
			if handler == nil {
				err = fmt.Errorf("core: domain %d has no syscall handler", dom)
				break
			}
			// The handler is the domain's Go-level kernel: it re-enters
			// the monitor through the public API, so it runs unlocked.
			if err = handler(c); err == nil {
				m.mach.Clock.Advance(m.mach.Cost.Sysret)
				continue
			}
		case hw.TrapMachineCheck:
			// A hardware fault killed whatever ran here. Contain it:
			// destroy the victim domain (scrubbed), park the core, and
			// report the trap. Containment is a destructive-family
			// entry — readers on other cores keep flowing; the teardown
			// waits out their epoch pins instead of the whole world.
			// Synchronize never waits on this core's own pin (the trap
			// handler holds none), so containing from the faulting core
			// cannot self-deadlock.
			m.mach.Clock.Advance(m.mach.Cost.VMExit)
			m.stats.vmExits.Add(1)
			m.denter()
			err = m.containFault(core, dom)
			m.dexit()
		}
		// The budget ran out, the preemption timer fired, a fault or an
		// illegal instruction, or a trap above that did not continue:
		// hand control back to the embedding scheduler.
		return r.stop(trap, dom, err)
	}
	if r.res.Steps < r.budget {
		return false
	}
	return r.stop(hw.Trap{Kind: hw.TrapNone}, r.cur(), nil)
}
