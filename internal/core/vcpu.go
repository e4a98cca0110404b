package core

// The run engine and the vCPU mechanism. RunCores runs one round on the
// caller's goroutine, cores taking turns in ascending order, so a run is
// a function of its inputs at any host thread count. The monitor does
// not schedule: management code (internal/sched) holds VCPU handles and
// drives CreateVCPU, DispatchVCPU, ArmTimer, RunSlices and PreemptVCPU;
// the saved state stays on the domain's record and dies with it.

import (
	"errors"
	"fmt"
	"slices"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// VCPU names one virtual CPU of a domain: the Index-th CreateVCPU (or
// restored vCPU) of Domain. The zero value names none.
type VCPU struct {
	Domain DomainID
	Index  int
}

// vcpuState is where a vCPU is in its life.
type vcpuState uint8

const (
	vcpuFresh vcpuState = iota // never dispatched: enters at the entry point
	vcpuSaved                  // preempted: resumes from its saved state
	vcpuOut                    // dispatched (or dropped) and not saved since
)

// vcpu is the monitor's side of a VCPU, guarded by its domain's mu.
type vcpu struct {
	state   vcpuState
	running DomainID   // the domain that runs when it resumes
	frames  []DomainID // its saved mediated-call stack
	regs    [hw.NumRegs]uint64
	pc      phys.Addr
	ring    hw.Ring
}

// CreateVCPU creates a vCPU for a live domain with an entry point; its
// first dispatch enters there.
func (m *Monitor) CreateVCPU(id DomainID) (VCPU, error) {
	d, err := m.liveDomain(id)
	if err != nil {
		return VCPU{}, err
	}
	if _, ok := d.Entry(); !ok {
		return VCPU{}, fmt.Errorf("%w: domain %d", ErrNoEntry, id)
	}
	return m.addVCPU(d, &vcpu{running: id}), nil
}

// addVCPU appends a vCPU to the domain's record and names it.
func (m *Monitor) addVCPU(d *Domain, v *vcpu) VCPU {
	d.vcpus = append(d.vcpus, v)
	m.vcpus++
	return VCPU{d.id, len(d.vcpus) - 1}
}

// DispatchVCPU puts a waiting vCPU on a core: the first dispatch enters
// the domain at its entry point as Launch does, later ones restore the
// saved state (a TransDispatch transition). It reports false, with no
// error, when the vCPU is not waiting — it is already dispatched, or
// was dropped for good because its domain, the domain it was running
// or a saved caller died, or the running domain may not run on the
// core. On an error the vCPU keeps waiting.
func (m *Monitor) DispatchVCPU(v VCPU, core phys.CoreID) (bool, error) {
	d, err := m.Domain(v.Domain)
	if err != nil {
		return false, err
	}
	if uint(v.Index) >= uint(len(d.vcpus)) || d.vcpus[v.Index].state == vcpuOut { // a dead domain has none
		return false, nil
	}
	ctx := d.vcpus[v.Index]
	saved := *ctx
	ctx.state = vcpuOut // claimed: no second dispatch restores the same state

	var live bool
	if saved.state == vcpuFresh {
		err = m.launch(v.Domain, core, v)
		if live = err == nil; errors.Is(err, ErrDead) || errors.Is(err, ErrNoSuchDomain) ||
			errors.Is(err, ErrDenied) || errors.Is(err, ErrNoEntry) {
			err = nil
		}
	} else {
		live, err = m.resume(v, &saved, core)
	}
	if err != nil { // a dropped vCPU stays out for good
		ctx.state = saved.state
	}
	return live, err
}

// resume is DispatchVCPU's TransDispatch transition: validated like
// Launch (the running domain and every saved caller live, the running
// domain holds the core) but restoring the saved state instead of
// entering at the fixed entry point.
func (m *Monitor) resume(v VCPU, ctx *vcpu, core phys.CoreID) (bool, error) {
	for _, id := range append(ctx.frames[:len(ctx.frames):len(ctx.frames)], ctx.running) {
		if _, err := m.liveDomain(id); err != nil {
			return false, nil // a dead caller's stack can never unwind
		}
	}
	if !m.space.OwnerHasCore(cap.OwnerID(ctx.running), core) {
		return false, nil
	}
	c, sc := m.mach.Core(core), m.sched[core] // the capability names a machine core, as in Launch
	if err := m.bk.Transition(c, cap.OwnerID(ctx.running), false); err != nil {
		return false, err
	}
	c.Regs, c.PC, c.Ring = ctx.regs, ctx.pc, ctx.ring
	sc.frames = append(sc.frames[:0], ctx.frames...)
	sc.cur, sc.hasCur, sc.vcpu = ctx.running, true, v
	m.stats.Transitions++
	m.emitCore(core, trace.KTransition, ctx.running, 0, 0, 0, trace.TransDispatch)
	return true, nil
}

// ArmTimer arms core's one-shot preemption timer to fire after n
// retired instructions; n <= 0 disarms it.
func (m *Monitor) ArmTimer(core phys.CoreID, n int) error {
	if c := m.mach.Core(core); c != nil {
		c.ArmTimer(n)
		return nil
	}
	return fmt.Errorf("core: no core %v", core)
}

// PreemptVCPU saves the state of the vCPU last dispatched on core — its
// registers, PC, ring, running domain and the core's mediated-call
// stack — so a later dispatch, on any core, restores it exactly, and
// empties the core's call stack. v must be that vCPU: the monitor never
// saves one domain's registers into another's vCPU.
func (m *Monitor) PreemptVCPU(v VCPU, core phys.CoreID) error {
	sc, ok := m.sched[core]
	if !ok {
		return fmt.Errorf("core: no core %v", core)
	}
	if sc.vcpu != v || v == (VCPU{}) {
		return fmt.Errorf("%w: vCPU %d of domain %d is not on %v", ErrNotRunning, v.Index, v.Domain, core)
	}
	c := m.mach.Core(core)
	d, _ := m.tab.get(v.Domain) // dispatched, so it exists
	if v.Index < len(d.vcpus) { // else the domain died: nothing is kept
		ctx := d.vcpus[v.Index]
		ctx.regs, ctx.pc, ctx.ring = c.Regs, c.PC, c.Ring
		if cur, ok := m.currentDomain(core, sc); ok {
			ctx.running = cur
		}
		ctx.frames = append(ctx.frames[:0], sc.frames...)
		ctx.state = vcpuSaved
	}
	sc.frames = sc.frames[:0]
	sc.cur, sc.hasCur, sc.vcpu = 0, false, VCPU{}
	return nil
}

// Stop is how a run ended, in the terms management code decides a
// vCPU's next step by.
type Stop uint8

// How a run ended.
const (
	StopFault     Stop = iota // a fault or an illegal instruction wedged it
	StopBudget                // the budget ran out mid-slice
	StopYield                 // the guest invoked CallYield
	StopTimer                 // the preemption timer fired
	StopHalt                  // it halted with an empty call stack: done
	StopContained             // a machine check: containment killed the domain and parked the core
)

var trapStops = [...]Stop{hw.TrapNone: StopBudget, hw.TrapTimer: StopTimer, hw.TrapHalt: StopHalt, hw.TrapMachineCheck: StopContained}

// Stop classifies how the run ended.
func (r RunResult) Stop() Stop {
	if r.Yielded {
		return StopYield
	}
	if k := int(r.Trap.Kind); k < len(trapStops) {
		return trapStops[k]
	}
	return StopFault
}

// Slice is one core's part in a round: the core and its instruction
// budget in, how its run ended out.
type Slice struct {
	Core   phys.CoreID
	Budget int
	Result RunResult
	Err    error
}

// roundTurn is how many instructions a core runs before the next core
// of the round takes its turn, so what one core's monitor entries see
// of another's is a function of the round, not of host scheduling.
const roundTurn = 256

// RunSlices runs one round: each slice's core runs its installed domain,
// the cores taking turns in slice order until each has trapped, failed
// or spent its budget. It fires no checkpoint (see Checkpoint).
func (m *Monitor) RunSlices(s []Slice) {
	// Up to eight cores, a round's runs stay off the heap: fleet.Pulse
	// runs one round per node per serving wave.
	var buf [8]coreRun
	round, at := buf[:0], make([]int, 0, 8) // at: round position → slice
	for i := range s {
		r, err := m.startRun(s[i].Core, s[i].Budget)
		s[i].Result, s[i].Err = RunResult{}, err
		if err == nil {
			round, at = append(round, r), append(at, i)
		}
	}
	for running := len(round); running > 0; {
		running = 0
		for i := range round {
			if r := &round[i]; !r.done && !r.step(roundTurn) {
				running++
			}
		}
	}
	for j, r := range round {
		s[at[j]].Result, s[at[j]].Err = r.res, r.err
	}
}

// RunCores runs one round on the given cores, each with the same
// instruction budget, and returns per-core results and the first error
// any core hit; a failing core does not stop the others. With no cores
// listed it runs every core with a domain installed. The round ends at
// the checkpoint, where every core is quiescent.
func (m *Monitor) RunCores(budget int, cores ...phys.CoreID) (map[phys.CoreID]RunResult, error) {
	listed := len(cores) > 0
	if !listed {
		cores = m.mach.CoreIDs()
	}
	cores = slices.Clone(cores)
	slices.Sort(cores)
	var buf [8]Slice
	round := buf[:0]
	for _, c := range slices.Compact(cores) {
		if _, ok := m.Current(c); ok || listed { // an idle core the caller did not list is skipped
			round = append(round, Slice{Core: c, Budget: budget})
		}
	}
	m.RunSlices(round)
	results := make(map[phys.CoreID]RunResult, len(round))
	var firstErr error
	for _, s := range round {
		results[s.Core] = s.Result
		if s.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core %v: %w", s.Core, s.Err)
		}
	}
	m.Checkpoint()
	return results, firstErr
}
