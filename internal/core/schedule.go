package core

// The run engine, Monitor.RunCores: rounds of dispatch, run and
// barrier on the caller's goroutine, each phase in ascending core
// order. Dedicated mode, the default, runs each core's installed domain
// for one round; installing a sched.Policy and scheduling a domain
// makes the rounds time-multiplex N vCPUs over M cores (N ≫ M) from
// internal/sched's run queues. Queue decisions, cycle-clock reads and
// the interleaving of cores are all fixed by the round, so a run's
// history — dispatch Records, cycles, trace — is a pure function of
// (seed, arrival order, guest code) at any host thread count. Cores
// run concurrently only where a caller makes them: RunCore is safe to
// call from several goroutines (fleet.Serve, embedders and tests do).
//
// Lock order: the engine runs with no monitor locks and takes
// coreSched.mu inside dispatch (a pinned reader entry), exactly like
// Launch; schedMu and the Scheduler's own mutex are leaves (destruction
// purges the queue under revMu, giving revMu → schedMu → sched's mutex
// — never the reverse).

import (
	"errors"
	"fmt"
	"slices"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/sched"
	"github.com/tyche-sim/tyche/internal/trace"
)

// schedStaged is one staged arrival: a vCPU scheduled before the run
// queue materialises (Schedule) or restored from a migration snapshot
// (ScheduleResumed), replayed in arrival order at the first scheduled
// RunCores.
type schedStaged struct {
	id      DomainID
	resumed bool
	regs    [hw.NumRegs]uint64
	pc      phys.Addr
	ring    hw.Ring
}

// SetSchedPolicy installs (or, with nil, removes) the multi-tenant
// scheduling policy: the queue policy RunCores dispatches from once a
// domain is scheduled. Installing a policy discards any previous run
// queue; domains scheduled afterwards form a fresh arrival order.
func (m *Monitor) SetSchedPolicy(pol *sched.Policy) {
	m.schedMu.Lock()
	defer m.schedMu.Unlock()
	m.schedPol = pol
	m.schedSet = nil
	m.runq = nil
}

// Schedule enqueues one vCPU for the domain on the monitor's run
// queue (SetSchedPolicy first). A domain may be scheduled more than
// once — each call adds an independent vCPU. Arrival order is call
// order, part of the determinism contract.
func (m *Monitor) Schedule(id DomainID) error {
	d, err := m.liveDomain(id)
	if err != nil {
		return err
	}
	if _, ok := d.Entry(); !ok {
		return fmt.Errorf("%w: domain %d", ErrNoEntry, id)
	}
	return m.arrive(schedStaged{id: id})
}

// arrive adds one vCPU in arrival order: onto the run queue if it
// exists, else staged — the queue materialises at the first scheduled
// RunCores, once the core set is known.
func (m *Monitor) arrive(st schedStaged) error {
	m.schedMu.Lock()
	defer m.schedMu.Unlock()
	if m.schedPol == nil {
		return fmt.Errorf("core: no scheduling policy installed (SetSchedPolicy)")
	}
	if m.runq != nil {
		m.enqueue(st, m.mach.Clock.Cycles())
	} else {
		m.schedSet = append(m.schedSet, st)
	}
	return nil
}

// enqueue puts one arrival on the run queue (schedMu held).
func (m *Monitor) enqueue(st schedStaged, now uint64) {
	if st.resumed {
		m.runq.AddResumed(uint64(st.id), st.regs, st.pc, st.ring, now)
	} else {
		m.runq.Add(uint64(st.id), now)
	}
}

// ScheduleResumed enqueues a vCPU restored from a migration snapshot
// (migrate.go): its saved architectural state dispatches via the
// TransDispatch resume path instead of an entry-point launch. Same
// staging rules as Schedule — the restored vCPU is a new arrival in
// this monitor's determinism contract.
func (m *Monitor) ScheduleResumed(id DomainID, regs [hw.NumRegs]uint64, pc phys.Addr, ring hw.Ring) error {
	if _, err := m.liveDomain(id); err != nil {
		return err
	}
	return m.arrive(schedStaged{id: id, resumed: true, regs: regs, pc: pc, ring: ring})
}

// Scheduler returns the monitor's live run queue (nil when the
// monitor is in dedicated-core mode or no scheduled run has started).
// Experiments read dispatch records, the schedule hash, and latency
// samples from it.
func (m *Monitor) Scheduler() *sched.Scheduler {
	m.schedMu.Lock()
	defer m.schedMu.Unlock()
	return m.runq
}

// runQueue returns the persistent run queue, creating it over the
// given cores once a policy is installed and a vCPU scheduled, and
// replaying the staged arrival order. It returns nil in dedicated mode.
func (m *Monitor) runQueue(cores []phys.CoreID) *sched.Scheduler {
	m.schedMu.Lock()
	defer m.schedMu.Unlock()
	if m.runq == nil && m.schedPol != nil && len(m.schedSet) > 0 {
		m.runq = sched.New(*m.schedPol, cores)
		now := m.mach.Clock.Cycles()
		for _, st := range m.schedSet {
			m.enqueue(st, now)
		}
		m.schedSet = nil
	}
	return m.runq
}

// schedPurge drops every queued vCPU of a dying domain from the run
// queue. Called by destroyDomain after the death publish and grace
// period: any dispatch that validated liveness before the publish has
// retired, and later ones fail the liveness check — so a ForceKilled
// domain is never dispatched again.
func (m *Monitor) schedPurge(id DomainID) {
	m.schedMu.Lock()
	q := m.runq
	m.schedMu.Unlock()
	if q == nil {
		return
	}
	if n := q.PurgeDomain(uint64(id)); n > 0 {
		m.stats.schedPurged.Add(uint64(n))
	}
}

// RunCores drives the given cores on the caller's goroutine, each with
// its own instruction budget, and returns per-core results and the
// first error any core hit; a failing core does not stop the others.
// With no cores listed it runs every core with a domain installed (in
// scheduled mode, every core). Each round:
//
//   - Dispatch: dedicated mode runs each core's installed domain, for
//     one round; scheduled mode (SetSchedPolicy + Schedule) pops each
//     core's run queue while the core has budget left.
//   - Run (runRound): the cores take turns, at most
//     sched.DefaultQuantum instructions each, until each has trapped,
//     failed or spent its budget.
//   - Barrier: a scheduled round requeues or retires each vCPU and
//     drains the submission rings; every round fires the checkpoint.
func (m *Monitor) RunCores(budget int, cores ...phys.CoreID) (map[phys.CoreID]RunResult, error) {
	listed := len(cores) > 0
	if !listed {
		cores = m.mach.CoreIDs()
	}
	cores = slices.Clone(cores)
	slices.Sort(cores)
	cores = slices.Compact(cores)
	q := m.runQueue(cores)
	results := make(map[phys.CoreID]RunResult, len(cores))
	remaining := make([]int, len(cores)) // budget left, by position in cores
	for i, c := range cores {
		remaining[i] = budget
		if listed || q != nil { // an idle unlisted core has no entry
			results[c] = RunResult{}
		}
	}
	var firstErr error
	fail := func(c phys.CoreID, err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("core %v: %w", c, err)
		}
	}
	// Up to eight cores, a round's runs stay off the heap: fleet.Pulse
	// runs one round per node per serving wave.
	var buf [8]coreRun
	round := buf[:0]
	for {
		round = round[:0]
		for i, c := range cores {
			var v *sched.VCPU
			if q != nil {
				var err error
				if remaining[i] > 0 {
					v, err = m.dispatchNext(q, c, remaining[i])
				}
				if err != nil {
					fail(c, err)
					break // the cores dispatched so far still run
				}
				if v == nil {
					continue
				}
			}
			// Only an idle core the caller did not list fails to start.
			if r, err := m.startRun(c, remaining[i]); err == nil {
				r.vcpu = v
				round = append(round, r)
			} else if listed {
				fail(c, err)
			}
		}
		if q != nil && len(round) == 0 {
			break
		}
		runRound(round)
		for j := range round {
			r, c := &round[j], round[j].id
			agg := results[c]
			agg.Steps += r.res.Steps
			agg.Trap, agg.Domain, agg.Yielded = r.res.Trap, r.res.Domain, r.res.Yielded
			results[c] = agg
			i, _ := slices.BinarySearch(cores, c)
			remaining[i] -= r.res.Steps
			if r.err != nil {
				fail(c, r.err)
			} else if q != nil && m.settle(q, r.vcpu, c, r.res) {
				remaining[i] = 0
			}
		}
		// Round-barrier ring drain: every core is quiescent and the
		// cycle clock is at a sequential point, so batched work lands at
		// a deterministic place in the schedule. Guarded by one atomic
		// load — runs with no rings registered take this branch never
		// and stay cycle-identical to pre-ring builds.
		if q != nil && firstErr == nil && m.ringCount.Load() > 0 {
			if n := m.DrainRings(); n > 0 {
				q.RecordBarrierDrain(n)
			}
		}
		// Round barriers are where the runtime-verification service
		// merges its shard checkers: every core is quiescent, so the
		// cross-core trace properties are settled. Host-side only — an
		// uninstalled hook is one atomic load.
		m.runCheckpoint()
		if q == nil || firstErr != nil {
			break
		}
	}
	if q != nil {
		// Leave no stale one-shot timers armed across engine invocations.
		for _, c := range cores {
			m.mach.Core(c).ArmTimer(0)
		}
		if s := q.Counters().MaxQueueDepth; s > m.stats.schedMaxQueue.Load() {
			m.stats.schedMaxQueue.Store(s)
		}
	}
	return results, firstErr
}

// runRound is a round's run phase: the cores take turns in the round's
// (ascending) order, at most sched.DefaultQuantum instructions a turn,
// until every one has stopped. What one core's monitor entries see of
// another's is then a function of the round, not of host scheduling.
func runRound(round []coreRun) {
	for running := len(round); running > 0; {
		running = 0
		for i := range round {
			if r := &round[i]; !r.done && !r.step(sched.DefaultQuantum) {
				running++
			}
		}
	}
}

// dispatchNext pops core c's run queue until a vCPU lands on c, arms
// c's timer with the vCPU's slice and records the dispatch; nil means
// the queue is empty. The first dispatch of a vCPU launches its domain
// at the entry point, later ones restore its saved state. A vCPU whose
// domain died or lost the core is dropped — the containment contract
// for anything a purge could not catch. On a dispatch error the vCPU
// goes back on its queue and stays out of the record.
func (m *Monitor) dispatchNext(q *sched.Scheduler, c phys.CoreID, budget int) (*sched.VCPU, error) {
	for {
		v, ok := q.Next(c)
		if !ok {
			return nil, nil
		}
		live, err := true, error(nil)
		if v.Started {
			live, err = m.resumeVCPU(v, c)
		} else if err = m.Launch(DomainID(v.Domain), c); err == nil {
			v.Started, v.Running = true, v.Domain
		} else if errors.Is(err, ErrDead) || errors.Is(err, ErrNoSuchDomain) ||
			errors.Is(err, ErrDenied) || errors.Is(err, ErrNoEntry) {
			live, err = false, nil
		}
		if err != nil {
			q.Requeue(v, m.mach.Clock.Cycles(), false)
			return nil, err
		}
		if !live {
			m.stats.schedPurged.Add(1)
			continue
		}
		m.mach.Core(c).ArmTimer(min(q.Quantum(), budget))
		q.Dispatched(v, c, m.mach.Clock.Cycles())
		m.stats.schedDispatches.Add(1)
		if v.Stolen {
			m.stats.schedSteals.Add(1)
		}
		return v, nil
	}
}

// settle is the barrier's decision for a vCPU that ran on core c
// without error: requeue it or retire it. It reports whether the core
// sits out the run's further rounds.
func (m *Monitor) settle(q *sched.Scheduler, v *sched.VCPU, c phys.CoreID, res RunResult) (coreDone bool) {
	switch {
	case res.Yielded:
		m.stats.schedYields.Add(1)
	case res.Trap.Kind == hw.TrapTimer:
		m.stats.schedPreemptions.Add(1)
	case res.Trap.Kind == hw.TrapNone:
		// Core budget spent mid-slice: the vCPU goes back on the queue
		// (another core may steal it) and the core retires.
		coreDone = true
	case res.Trap.Kind == hw.TrapHalt:
		m.stats.schedCompleted.Add(1) // ran to completion
		return false
	case res.Trap.Kind == hw.TrapMachineCheck:
		// Containment already destroyed the victim (purging its queued
		// siblings) and parked the core.
		return true
	default:
		// Fault/illegal: the vCPU is wedged; drop it. Policy beyond that
		// belongs to the embedder, as in dedicated mode.
		return false
	}
	m.saveVCPU(v, c)
	q.Requeue(v, m.mach.Clock.Cycles(), res.Yielded)
	return coreDone
}

// resumeVCPU performs the TransDispatch transition: validated like
// Launch (liveness of the running domain and every saved call frame,
// core capability) but restoring the vCPU's architectural state
// instead of entering at the fixed entry point. Pinned reader entry →
// per-core lock, the standard transition order; the pin orders the
// dispatch's KTransition before any concurrent kill's KKill.
func (m *Monitor) resumeVCPU(v *sched.VCPU, core phys.CoreID) (bool, error) {
	p := m.renter()
	defer m.rexit(p)
	id := DomainID(v.Running)
	if _, err := m.liveDomain(id); err != nil {
		return false, nil
	}
	for _, f := range v.Frames {
		if _, err := m.liveDomain(DomainID(f)); err != nil {
			// A saved caller died while the vCPU was queued; the stack
			// can never unwind, so the whole vCPU is unschedulable.
			return false, nil
		}
	}
	if !m.space.OwnerHasCore(cap.OwnerID(id), core) {
		return false, nil
	}
	c, sc := m.mach.Core(core), m.sched[core] // the capability names a machine core, as in Launch
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if err := m.bk.Transition(c, cap.OwnerID(id), false); err != nil {
		return false, err
	}
	c.Regs = v.Regs
	c.PC = v.PC
	c.Ring = v.Ring
	sc.frames = sc.frames[:0]
	for _, f := range v.Frames {
		sc.frames = append(sc.frames, DomainID(f))
	}
	sc.cur, sc.hasCur = id, true
	m.stats.transitions.Add(1)
	m.emitCore(core, trace.KTransition, id, 0, 0, 0, trace.TransDispatch)
	return true, nil
}

// saveVCPU captures the preempted vCPU's architectural state and the
// core's mediated-call stack so a later dispatch — possibly on
// another core — can restore it exactly.
func (m *Monitor) saveVCPU(v *sched.VCPU, core phys.CoreID) {
	c := m.mach.Core(core)
	sc := m.sched[core]
	sc.mu.Lock()
	defer sc.mu.Unlock()
	v.Regs = c.Regs
	v.PC = c.PC
	v.Ring = c.Ring
	if cur, ok := m.currentDomain(core, sc); ok {
		v.Running = uint64(cur)
	}
	v.Frames = v.Frames[:0]
	for _, f := range sc.frames {
		v.Frames = append(v.Frames, uint64(f))
	}
	sc.frames = sc.frames[:0]
	sc.cur, sc.hasCur = 0, false
}
