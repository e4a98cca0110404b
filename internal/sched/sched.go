// Package sched is management code: a preemptive multi-tenant scheduler
// that time-multiplexes N trust domains over M simulated cores (N ≫ M)
// with per-core run queues, round-robin quantum budgets, cooperative
// yield, and work stealing between idle cores.
//
// The monitor does not schedule (ARCHITECTURE §9). It keeps the
// mechanism — create a vCPU, dispatch it onto a core, arm the
// preemption timer, save a preempted vCPU — and this package drives it
// from whoever holds the cores, queueing only vCPU handles: a queued
// vCPU's registers never leave the monitor. Every decision here is a
// pure function of the scheduler's own state plus its explicit inputs
// (seed, arrival order, cycle counts) — no wall clock, no global
// randomness, no map iteration in any decision path — so an identical
// sequence of calls replays an identical schedule, bit for bit, on any
// host and under the race detector.
//
// A Scheduler has one owner and no lock: it is driven from its Run
// loop's sequential decision points.
package sched

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/phys"
)

// DefaultQuantum is the per-dispatch instruction budget when the
// policy does not set one.
const DefaultQuantum = 256

// Policy configures the scheduler. The zero value is a usable
// round-robin policy.
type Policy struct {
	// Quantum is the base time slice in retired instructions
	// (DefaultQuantum when 0).
	Quantum int
	// Seed offsets the initial round-robin placement cursor, so
	// distinct seeds produce distinct (but each fully deterministic)
	// schedules from the same arrival order.
	Seed int64
}

func (p Policy) quantum() int {
	if p.Quantum <= 0 {
		return DefaultQuantum
	}
	return p.Quantum
}

// queued is one queued vCPU: the monitor's handle plus its place in
// the queues.
type queued struct {
	id       core.VCPU
	home     phys.CoreID // the core whose queue holds it
	stolen   bool        // its last dequeue crossed cores
	seq      uint64      // arrival order (1-based)
	enqueued uint64      // cycle stamp of the last enqueue
}

// Record is one dispatch decision, the unit of the determinism
// contract: the full schedule of a run is its Record sequence, and
// Hash folds it into one comparable value.
type Record struct {
	Seq    uint64 // 1-based dispatch number
	Core   phys.CoreID
	Domain core.DomainID // the domain the dispatch entered
	VCPU   uint64        // the vCPU's arrival number
	Steal  bool
	Cycle  uint64 // aggregate cycle clock at the decision point
}

// Counters are the scheduler's event tallies.
type Counters struct {
	Dispatches    uint64
	Preemptions   uint64 // requeues of a vCPU cut off by the preemption timer or the core's budget
	Yields        uint64 // requeues caused by CallYield
	Steals        uint64 // dispatches that crossed cores
	Dropped       uint64 // vCPUs the monitor refused to dispatch: their domain, a saved caller or the core is gone
	Completed     uint64 // vCPUs that halted: ran to completion
	MaxQueueDepth uint64 // deepest any single run queue ever got
	BarrierDrains uint64 // round barriers that drained submission rings
	DrainedOps    uint64 // ring descriptors executed at those barriers
}

// Scheduler is one manager's run queues over a fixed set of cores of
// one monitor.
type Scheduler struct {
	mon    *core.Monitor
	pol    Policy
	cores  []phys.CoreID
	queues map[phys.CoreID][]*queued
	ran    bool // a Run has started: arrivals are stamped as they come

	place    int // rotating placement cursor (seeded)
	arrivals uint64
	ctr      Counters
	recs     []Record
	lats     []uint64 // per-dispatch queue latency samples, in cycles
}

// New returns a scheduler over the monitor's given cores (deduplicated,
// sorted ascending — decision order never depends on caller order).
// The policy seed positions the initial placement cursor.
func New(m *core.Monitor, pol Policy, cores []phys.CoreID) *Scheduler {
	cs := slices.Clone(cores)
	slices.Sort(cs)
	cs = slices.Compact(cs)
	s := &Scheduler{
		mon:    m,
		pol:    pol,
		cores:  cs,
		queues: make(map[phys.CoreID][]*queued, len(cs)),
	}
	if n := len(cs); n > 0 {
		seed := pol.Seed % int64(n)
		if seed < 0 {
			seed += int64(n)
		}
		s.place = int(seed)
	}
	return s
}

// Cores returns the scheduled cores in decision (ascending) order.
func (s *Scheduler) Cores() []phys.CoreID { return slices.Clone(s.cores) }

// Add creates one vCPU for the domain on the monitor and queues it. A
// domain may be added more than once — each call adds an independent
// vCPU. Arrival order is call order, part of the determinism contract.
func (s *Scheduler) Add(id core.DomainID) error {
	v, err := s.mon.CreateVCPU(id)
	if err != nil {
		return err
	}
	s.enqueue(v)
	return nil
}

// Adopt queues the n vCPUs RestoreDomain recreated for a migrated
// domain (its snapshot's VCPUs), each a new arrival here.
func (s *Scheduler) Adopt(id core.DomainID, n int) {
	for i := range n {
		s.enqueue(core.VCPU{Domain: id, Index: i})
	}
}

// enqueue places one arrival round-robin from the seeded cursor. Before
// the first Run the vCPUs arrive together when it starts.
func (s *Scheduler) enqueue(id core.VCPU) {
	home := s.cores[s.place%len(s.cores)]
	s.place++
	s.arrivals++
	v := &queued{id: id, seq: s.arrivals}
	if s.ran {
		v.enqueued = s.now()
	}
	s.push(home, v)
}

// now is the monitor's cycle clock.
func (s *Scheduler) now() uint64 { return s.mon.Machine().Clock.Cycles() }

// push appends v to core's queue and maintains the depth high-water
// mark.
func (s *Scheduler) push(c phys.CoreID, v *queued) {
	v.home = c
	s.queues[c] = append(s.queues[c], v)
	if d := uint64(len(s.queues[c])); d > s.ctr.MaxQueueDepth {
		s.ctr.MaxQueueDepth = d
	}
}

// next pops the head of core's run queue. With an empty queue it takes
// the *tail* of the deepest sibling queue (ties break toward the lowest
// core ID), re-homing the vCPU — the deterministic work-stealing rule.
// next only dequeues; dispatched records the dispatch once the monitor
// has made it, so a vCPU dropped at dispatch never enters the record.
func (s *Scheduler) next(at phys.CoreID) (*queued, bool) {
	if q := s.queues[at]; len(q) > 0 {
		v := q[0]
		s.queues[at] = q[1:]
		v.stolen = false
		return v, true
	}
	var victim phys.CoreID
	depth := 0
	for _, c := range s.cores { // ascending: ties pick the lowest ID
		if c == at {
			continue
		}
		if d := len(s.queues[c]); d > depth {
			depth = d
			victim = c
		}
	}
	if depth == 0 {
		return nil, false
	}
	q := s.queues[victim]
	v := q[len(q)-1]
	s.queues[victim] = q[:len(q)-1]
	v.home = at
	v.stolen = true
	return v, true
}

// dispatched commits a dequeue as a dispatch that entered domain:
// records it, samples the queue latency, and tallies the counters. now
// is the cycle count at the decision point.
func (s *Scheduler) dispatched(v *queued, c phys.CoreID, domain core.DomainID, now uint64) {
	s.ctr.Dispatches++
	if v.stolen {
		s.ctr.Steals++
	}
	if now >= v.enqueued {
		s.lats = append(s.lats, now-v.enqueued)
	}
	s.recs = append(s.recs, Record{
		Seq:    s.ctr.Dispatches,
		Core:   c,
		Domain: domain,
		VCPU:   v.seq,
		Steal:  v.stolen,
		Cycle:  now,
	})
}

// Run drives the queued vCPUs over the scheduler's cores, each core with
// its own instruction budget, until every queue is empty or every core
// has spent its budget, and returns per-core results and the first
// error. Each round:
//
//   - Dispatch: each core with budget left pops its queue until the
//     monitor dispatches a vCPU there, and arms the core's timer with
//     the slice.
//   - Run: the monitor's RunSlices, each core bounded by its budget.
//   - Barrier: each vCPU is requeued (preempted, yielded, or cut by the
//     budget, which retires the core) or retired, the submission rings
//     drain, and the checkpoint fires.
func (s *Scheduler) Run(budget int) (map[phys.CoreID]core.RunResult, error) {
	m := s.mon
	if !s.ran {
		s.ran = true
		now := s.now()
		for _, c := range s.cores {
			for _, v := range s.queues[c] {
				v.enqueued = now
			}
		}
	}
	results := make(map[phys.CoreID]core.RunResult, len(s.cores))
	remaining := make([]int, len(s.cores)) // budget left, by position in cores
	for i, c := range s.cores {
		remaining[i] = budget
		results[c] = core.RunResult{}
	}
	var firstErr error
	fail := func(c phys.CoreID, err error) {
		if firstErr == nil {
			firstErr = fmt.Errorf("core %v: %w", c, err)
		}
	}
	var round []core.Slice
	var on []*queued // the vCPU of each slice
	for {
		round, on = round[:0], on[:0]
		for i, c := range s.cores {
			if remaining[i] <= 0 {
				continue
			}
			v, err := s.dispatch(c, remaining[i])
			if err != nil {
				fail(c, err)
				break // the cores dispatched so far still run
			}
			if v != nil {
				round = append(round, core.Slice{Core: c, Budget: remaining[i]})
				on = append(on, v)
			}
		}
		if len(round) == 0 {
			break
		}
		m.RunSlices(round)
		for j, sl := range round {
			c := sl.Core
			agg := results[c]
			agg.Steps += sl.Result.Steps
			agg.Trap, agg.Domain, agg.Yielded = sl.Result.Trap, sl.Result.Domain, sl.Result.Yielded
			results[c] = agg
			i, _ := slices.BinarySearch(s.cores, c)
			remaining[i] -= sl.Result.Steps
			if sl.Err != nil {
				fail(c, sl.Err)
			} else if done, err := s.settle(on[j], c, sl.Result); err != nil {
				fail(c, err)
			} else if done {
				remaining[i] = 0
			}
		}
		// Round-barrier ring drain: every core is quiescent and the
		// cycle clock is at a sequential point, so batched work lands at
		// a deterministic place in the schedule. With no rings
		// registered it is one atomic load.
		if firstErr == nil {
			if n := m.DrainRings(); n > 0 {
				s.ctr.BarrierDrains++
				s.ctr.DrainedOps += n
			}
		}
		m.Checkpoint()
		if firstErr != nil {
			break
		}
	}
	// Leave no stale one-shot timers armed past the run (a core the
	// machine lacks has none).
	for _, c := range s.cores {
		_ = m.ArmTimer(c, 0)
	}
	return results, firstErr
}

// dispatch pops core c's queue until the monitor dispatches a vCPU
// there, arms c's timer with the vCPU's slice and records the dispatch;
// nil means the queue is empty. A vCPU the monitor drops (its domain
// or a saved caller died, or the core is gone) leaves the queue for
// good. On a dispatch error the vCPU goes back on its queue and stays
// out of the record.
func (s *Scheduler) dispatch(c phys.CoreID, budget int) (*queued, error) {
	for {
		v, ok := s.next(c)
		if !ok {
			return nil, nil
		}
		live, err := s.mon.DispatchVCPU(v.id, c)
		if err != nil {
			s.requeue(v, s.now())
			return nil, err
		}
		if !live {
			s.ctr.Dropped++
			continue
		}
		_ = s.mon.ArmTimer(c, min(s.pol.quantum(), budget)) // c exists: the dispatch landed there
		dom, _ := s.mon.Current(c)
		s.dispatched(v, c, dom, s.now())
		return v, nil
	}
}

// settle is the barrier's decision for a vCPU that ran on core c
// without error: requeue it or retire it. It reports whether the core
// sits out the run's further rounds.
func (s *Scheduler) settle(v *queued, c phys.CoreID, res core.RunResult) (coreDone bool, err error) {
	switch res.Stop() {
	case core.StopYield:
		s.ctr.Yields++
	case core.StopTimer:
		s.ctr.Preemptions++
	case core.StopBudget:
		// Core budget spent mid-slice: the vCPU goes back on the queue
		// (another core may steal it) and the core retires.
		s.ctr.Preemptions++
		coreDone = true
	case core.StopHalt:
		s.ctr.Completed++ // ran to completion
		return false, nil
	case core.StopContained:
		// Containment already destroyed the victim and parked the core.
		return true, nil
	default:
		// Fault/illegal: the vCPU is wedged; drop it.
		return false, nil
	}
	if err := s.mon.PreemptVCPU(v.id, c); err != nil {
		return coreDone, err
	}
	s.requeue(v, s.now())
	return coreDone, nil
}

// requeue puts v back at the tail of its home queue at cycle now.
func (s *Scheduler) requeue(v *queued, now uint64) {
	v.enqueued = now
	s.push(v.home, v)
}

// Pending returns the number of queued vCPUs.
func (s *Scheduler) Pending() int {
	n := 0
	for _, c := range s.cores {
		n += len(s.queues[c])
	}
	return n
}

// Counters returns the event tallies so far.
func (s *Scheduler) Counters() Counters { return s.ctr }

// Records returns the dispatch schedule so far.
func (s *Scheduler) Records() []Record { return slices.Clone(s.recs) }

// Hash folds the dispatch schedule into one FNV-1a value — two runs
// scheduled identically (same seed, arrival order, cycle counts)
// produce equal hashes; any divergence in core assignment, order,
// stealing, or timing changes it.
func (s *Scheduler) Hash() uint64 {
	h := fnv.New64a()
	var buf [8 * 5]byte
	for _, r := range s.recs {
		binary.LittleEndian.PutUint64(buf[0:], r.Seq)
		binary.LittleEndian.PutUint64(buf[8:], uint64(r.Core))
		binary.LittleEndian.PutUint64(buf[16:], uint64(r.Domain))
		binary.LittleEndian.PutUint64(buf[24:], r.VCPU)
		c := r.Cycle << 1
		if r.Steal {
			c |= 1
		}
		binary.LittleEndian.PutUint64(buf[32:], c)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// LatencyP99 returns the 99th-percentile transition-to-dispatch
// latency in cycles (0 with no samples).
func (s *Scheduler) LatencyP99() uint64 { return Percentile(s.lats, 99) }

// Percentile returns the p-th percentile (nearest-rank) of samples.
func Percentile(samples []uint64, p int) uint64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	rank := (len(sorted)*p + 99) / 100
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}
