package core

// The multi-tenant scheduling engine: time-multiplexes N scheduled
// domains over M cores (N ≫ M) by driving the internal/sched run
// queues from Monitor.RunCores. Dedicated-core mode stays the
// default; installing a sched.Policy and scheduling at least one
// domain opts a monitor in.
//
// The engine is bulk-synchronous: each round has a sequential
// dispatch phase (ascending core order: pop, validate, transition,
// arm the preemption timer), a parallel run phase (one goroutine per
// dispatched core, exactly the SMP engine), and a sequential barrier
// phase (ascending core order: save or retire each vCPU, requeue).
// Every queue decision and every cycle-clock read happens at a
// sequential point with all cores quiescent, so the schedule — the
// scheduler's dispatch Record sequence — is a pure function of
// (seed, arrival order, cycle counts): bit-identical across runs,
// across hosts, and under the race detector. The golden-trace and
// cycle bit-identity gates from earlier PRs survive untouched because
// nothing here consults wall time.
//
// Lock order: the engine's sequential phases run with no monitor
// locks and take coreSched.mu inside dispatch (a pinned reader entry),
// exactly like Launch; schedMu and the Scheduler's own mutex are leaves
// (destruction purges the queue under revMu, giving
// revMu → schedMu → sched's mutex — never the reverse).

import (
	"errors"
	"fmt"
	"sort"
	"sync"

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
// scheduling policy. Installing a policy discards any previous run
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

// schedEnabled reports whether RunCores must route to the scheduling
// engine: a policy is installed and at least one vCPU has ever been
// scheduled.
func (m *Monitor) schedEnabled() bool {
	m.schedMu.Lock()
	defer m.schedMu.Unlock()
	return m.schedPol != nil && (m.runq != nil || len(m.schedSet) > 0)
}

// schedQueue returns the persistent run queue, creating it over the
// given cores on first use and replaying the staged arrival order.
func (m *Monitor) schedQueue(cores []phys.CoreID) *sched.Scheduler {
	m.schedMu.Lock()
	defer m.schedMu.Unlock()
	if m.runq == nil {
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

// runScheduled is the oversubscribed RunCores: rounds of sequential
// dispatch, parallel execution, sequential barrier, until the queues
// drain or every core's budget is spent. With no cores listed it
// schedules over every core in the machine.
func (m *Monitor) runScheduled(budget int, cores []phys.CoreID) (map[phys.CoreID]RunResult, error) {
	if len(cores) == 0 {
		cores = m.mach.CoreIDs()
	}
	cores = append([]phys.CoreID(nil), cores...)
	sort.Slice(cores, func(i, j int) bool { return cores[i] < cores[j] })
	q := m.schedQueue(cores)

	remaining := make(map[phys.CoreID]int, len(cores))
	results := make(map[phys.CoreID]RunResult, len(cores))
	for _, c := range cores {
		remaining[c] = budget
		results[c] = RunResult{Trap: hw.Trap{Kind: hw.TrapNone}}
	}

	type outcome struct {
		v   *sched.VCPU
		res RunResult
		err error
	}
	var firstErr error
	for firstErr == nil {
		// Dispatch phase: ascending core order, cores quiescent. A vCPU
		// whose domain died between enqueue and dispatch is dropped here
		// (purge already removed queued ones; this catches kills that
		// landed while the vCPU was popped on a previous round's core).
		running := make(map[phys.CoreID]*sched.VCPU, len(cores))
		for _, c := range cores {
			if remaining[c] <= 0 {
				continue
			}
			for {
				v, ok := q.Next(c)
				if !ok {
					break
				}
				live, err := m.dispatchVCPU(v, c)
				if err != nil {
					firstErr = fmt.Errorf("core %v: %w", c, err)
					break
				}
				if !live {
					m.stats.schedPurged.Add(1)
					continue
				}
				slice := q.Quantum()
				if slice > remaining[c] {
					slice = remaining[c]
				}
				m.mach.Core(c).ArmTimer(slice)
				q.Dispatched(v, c, m.mach.Clock.Cycles())
				m.stats.schedDispatches.Add(1)
				if v.Stolen {
					m.stats.schedSteals.Add(1)
				}
				running[c] = v
				break
			}
		}
		if len(running) == 0 || firstErr != nil {
			break
		}

		// Run phase: the SMP engine proper — one goroutine per
		// dispatched core, no scheduler state touched.
		outs := make(map[phys.CoreID]*outcome, len(running))
		var (
			wg sync.WaitGroup
			mu sync.Mutex
		)
		for c, v := range running {
			wg.Add(1)
			go func(c phys.CoreID, v *sched.VCPU) {
				defer wg.Done()
				res, err := m.RunCore(c, remaining[c])
				mu.Lock()
				outs[c] = &outcome{v: v, res: res, err: err}
				mu.Unlock()
			}(c, v)
		}
		wg.Wait()

		// Barrier phase: ascending core order again — requeue order is
		// part of the schedule and must not depend on goroutine timing.
		for _, c := range cores {
			o := outs[c]
			if o == nil {
				continue
			}
			agg := results[c]
			agg.Steps += o.res.Steps
			agg.Trap = o.res.Trap
			agg.Domain = o.res.Domain
			agg.Yielded = o.res.Yielded
			results[c] = agg
			remaining[c] -= o.res.Steps
			if o.err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("core %v: %w", c, o.err)
				}
				continue
			}
			now := m.mach.Clock.Cycles()
			switch {
			case o.res.Yielded:
				m.saveVCPU(o.v, c)
				q.Requeue(o.v, now, true)
				m.stats.schedYields.Add(1)
			case o.res.Trap.Kind == hw.TrapTimer:
				m.saveVCPU(o.v, c)
				q.Requeue(o.v, now, false)
				m.stats.schedPreemptions.Add(1)
			case o.res.Trap.Kind == hw.TrapNone:
				// Core budget exhausted mid-slice: park the vCPU back on
				// the queue (another core may steal it) and retire the
				// core from further dispatch rounds.
				m.saveVCPU(o.v, c)
				q.Requeue(o.v, now, false)
				remaining[c] = 0
			case o.res.Trap.Kind == hw.TrapHalt:
				// Ran to completion (halt with an empty call stack).
				m.stats.schedCompleted.Add(1)
			case o.res.Trap.Kind == hw.TrapMachineCheck:
				// Containment already destroyed the victim (purging its
				// queued siblings) and parked the core.
				remaining[c] = 0
			default:
				// Fault/illegal: the vCPU is wedged; drop it. Policy
				// beyond that belongs to the embedder, as in dedicated
				// mode.
			}
		}
		// Round-barrier ring drain: every core is quiescent and the
		// cycle clock is at a sequential point, so batched work lands at
		// a deterministic place in the schedule. Guarded by one atomic
		// load — runs with no rings registered take this branch never
		// and stay cycle-identical to pre-ring builds.
		if firstErr == nil && m.ringCount.Load() > 0 {
			if n := m.DrainRings(); n > 0 {
				q.RecordBarrierDrain(n)
			}
		}
		// Round barriers are where the runtime-verification service
		// merges its shard checkers: every core is quiescent, so the
		// cross-core trace properties are settled. Host-side only — an
		// uninstalled hook is one atomic load.
		m.runCheckpoint()
	}
	// Leave no stale one-shot timers armed across engine invocations.
	for _, c := range cores {
		m.mach.Core(c).ArmTimer(0)
	}
	if s := q.Counters().MaxQueueDepth; s > m.stats.schedMaxQueue.Load() {
		m.stats.schedMaxQueue.Store(s)
	}
	return results, firstErr
}

// dispatchVCPU installs v on core: the first dispatch launches the
// domain at its entry point; later ones restore the vCPU's saved
// state. Returns live=false (no error) when the vCPU's domain died or
// lost its core capability — the caller drops the vCPU, which is the
// containment contract for anything a purge could not catch.
func (m *Monitor) dispatchVCPU(v *sched.VCPU, core phys.CoreID) (live bool, err error) {
	if !v.Started {
		err := m.Launch(DomainID(v.Domain), core)
		switch {
		case err == nil:
			v.Started = true
			v.Running = v.Domain
			return true, nil
		case errors.Is(err, ErrDead), errors.Is(err, ErrNoSuchDomain),
			errors.Is(err, ErrDenied), errors.Is(err, ErrNoEntry):
			return false, nil
		default:
			return false, err
		}
	}
	return m.resumeVCPU(v, core)
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
