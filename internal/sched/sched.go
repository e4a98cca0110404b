// Package sched is the monitor's preemptive multi-tenant scheduler:
// it time-multiplexes N trust domains over M simulated cores (N ≫ M)
// with per-core run queues of runnable vCPU contexts, round-robin
// quantum budgets, cooperative yield, and work stealing
// between idle cores.
//
// The package owns only the queueing *policy*; the mechanism (arming
// the hw preemption timer, performing the monitor-mediated dispatch
// transition, saving and restoring architectural state) lives in
// internal/core's scheduling engine, which drives a Scheduler from
// sequential decision points. That split keeps the determinism
// contract auditable in one place: every method here is a pure
// function of the scheduler's own state plus its explicit arguments
// (seed, arrival order, cycle counts) — no wall clock, no global
// randomness, no map iteration in any decision path — so an identical
// sequence of calls replays an identical schedule, bit for bit, on
// any host and under the race detector.
//
// Locking: a Scheduler carries one mutex and is a leaf in the
// monitor's documented lock hierarchy (below revMu and coreSched.mu;
// see docs/ARCHITECTURE.md §9). No method calls out of the package
// while holding it.
package sched

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"sync"

	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

// DefaultQuantum is the per-dispatch instruction budget when the
// policy does not set one.
const DefaultQuantum = 256

// Policy configures the scheduler. The zero value (plus one Schedule
// call) is a usable round-robin policy.
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

// VCPU is one runnable virtual CPU of a scheduled domain. The vCPU
// carries its own saved architectural state between dispatches, so
// two vCPUs of the same domain never collide in the backend's
// per-(domain, core) context and a stolen vCPU needs no context
// migration — the engine restores the register file on whichever
// core dispatches it next.
type VCPU struct {
	// Domain is the domain this vCPU was scheduled for.
	Domain uint64
	// Running is the domain currently executing on the vCPU — it
	// differs from Domain while a mediated call chain is in flight.
	Running uint64
	// Frames is the saved mediated-call stack (caller domain IDs).
	Frames []uint64

	// Saved architectural state (valid once Started).
	Regs [hw.NumRegs]uint64
	PC   phys.Addr
	Ring hw.Ring

	// Home is the core whose queue currently holds the vCPU.
	Home phys.CoreID
	// Started reports whether the vCPU has been dispatched at least
	// once (first dispatch is a Launch at the domain's entry point;
	// later ones restore the saved state).
	Started bool
	// Stolen marks a vCPU whose last dequeue crossed cores.
	Stolen bool

	seq      uint64 // arrival order (1-based)
	enqueued uint64 // cycle stamp of the last enqueue
}

// Record is one dispatch decision, the unit of the determinism
// contract: the full schedule of a run is its Record sequence, and
// Hash folds it into one comparable value.
type Record struct {
	Seq    uint64 // 1-based dispatch number
	Core   phys.CoreID
	Domain uint64 // the vCPU's Running domain at dispatch
	VCPU   uint64 // the vCPU's arrival number
	Steal  bool
	Cycle  uint64 // aggregate cycle clock at the decision point
}

// Counters are the scheduler's own event tallies (the monitor mirrors
// them into Stats()).
type Counters struct {
	Dispatches    uint64
	Preemptions   uint64 // requeues caused by the preemption timer
	Yields        uint64 // requeues caused by CallYield
	Steals        uint64 // dispatches that crossed cores
	Purged        uint64 // queued vCPUs removed because their domain died
	MaxQueueDepth uint64 // deepest any single run queue ever got
	BarrierDrains uint64 // round barriers that drained submission rings
	DrainedOps    uint64 // ring descriptors executed at those barriers
}

// Scheduler is the shared run-queue state. Safe for concurrent use;
// in the monitor it is driven only from sequential decision points,
// which is what makes the schedule replayable.
type Scheduler struct {
	mu     sync.Mutex
	pol    Policy
	cores  []phys.CoreID
	queues map[phys.CoreID][]*VCPU

	place    int // rotating placement cursor (seeded)
	arrivals uint64
	ctr      Counters
	recs     []Record
	lats     []uint64 // per-dispatch queue latency samples, in cycles
}

// New returns a scheduler over the given cores (deduplicated, sorted
// ascending — decision order never depends on caller order). The
// policy seed positions the initial placement cursor.
func New(pol Policy, cores []phys.CoreID) *Scheduler {
	set := map[phys.CoreID]bool{}
	var cs []phys.CoreID
	for _, c := range cores {
		if !set[c] {
			set[c] = true
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	s := &Scheduler{
		pol:    pol,
		cores:  cs,
		queues: make(map[phys.CoreID][]*VCPU, len(cs)),
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
func (s *Scheduler) Cores() []phys.CoreID {
	return append([]phys.CoreID(nil), s.cores...)
}

// Add enqueues a fresh vCPU for the domain, placed round-robin from
// the seeded cursor; now is the current cycle count. Arrival order is
// call order. Returns the vCPU's arrival number.
func (s *Scheduler) Add(domain uint64, now uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	home := s.cores[s.place%len(s.cores)]
	s.place++
	s.arrivals++
	v := &VCPU{
		Domain:   domain,
		Running:  domain,
		Home:     home,
		seq:      s.arrivals,
		enqueued: now,
	}
	s.push(home, v)
	return v.seq
}

// AddResumed enqueues a vCPU restored from a snapshot (live
// migration): the saved architectural state arrives with the vCPU, so
// its next dispatch is a TransDispatch resume, not an entry-point
// launch. Placement follows the same seeded round-robin cursor as Add
// and the arrival joins the same order — a restored vCPU is a new
// arrival on this scheduler, part of this run's determinism contract
// like any other. Returns the vCPU's arrival number.
func (s *Scheduler) AddResumed(domain uint64, regs [hw.NumRegs]uint64, pc phys.Addr, ring hw.Ring, now uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	home := s.cores[s.place%len(s.cores)]
	s.place++
	s.arrivals++
	v := &VCPU{
		Domain:   domain,
		Running:  domain,
		Regs:     regs,
		PC:       pc,
		Ring:     ring,
		Home:     home,
		Started:  true,
		seq:      s.arrivals,
		enqueued: now,
	}
	s.push(home, v)
	return v.seq
}

// DomainVCPUs returns snapshot copies of every *queued* vCPU whose
// Running domain is the given domain — the migration path's view of
// the domain's runnable contexts. Copies, not aliases: the caller
// serialises against dispatch (all cores quiescent) before trusting
// the saved state, and the scheduler's own records never escape.
func (s *Scheduler) DomainVCPUs(domain uint64) []VCPU {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []VCPU
	for _, c := range s.cores {
		for _, v := range s.queues[c] {
			if v.Running != domain && v.Domain != domain {
				continue
			}
			cp := *v
			cp.Frames = append([]uint64(nil), v.Frames...)
			out = append(out, cp)
		}
	}
	return out
}

// push appends v to core's queue and maintains the depth high-water
// mark. Caller holds s.mu.
func (s *Scheduler) push(core phys.CoreID, v *VCPU) {
	v.Home = core
	s.queues[core] = append(s.queues[core], v)
	if d := uint64(len(s.queues[core])); d > s.ctr.MaxQueueDepth {
		s.ctr.MaxQueueDepth = d
	}
}

// Next pops the head of core's run queue. With an empty queue it takes
// the *tail* of the deepest sibling queue (ties break toward the lowest
// core ID), re-homing the vCPU — the deterministic work-stealing rule.
// Next only dequeues; the engine confirms the dispatch with Dispatched
// once the transition lands, so a vCPU dropped at dispatch (its domain
// died) never enters the schedule record.
func (s *Scheduler) Next(core phys.CoreID) (*VCPU, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.queues[core]; len(q) > 0 {
		v := q[0]
		s.queues[core] = q[1:]
		v.Stolen = false
		return v, true
	}
	var victim phys.CoreID
	depth := 0
	for _, c := range s.cores { // ascending: ties pick the lowest ID
		if c == core {
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
	v.Home = core
	v.Stolen = true
	return v, true
}

// Dispatched commits a dequeue as a dispatch: records it, samples the
// queue latency, and tallies the counters. now is the cycle count at
// the decision point.
func (s *Scheduler) Dispatched(v *VCPU, core phys.CoreID, now uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctr.Dispatches++
	if v.Stolen {
		s.ctr.Steals++
	}
	if now >= v.enqueued {
		s.lats = append(s.lats, now-v.enqueued)
	}
	s.recs = append(s.recs, Record{
		Seq:    s.ctr.Dispatches,
		Core:   core,
		Domain: v.Running,
		VCPU:   v.seq,
		Steal:  v.Stolen,
		Cycle:  now,
	})
}

// Requeue returns a preempted (yielded = false) or yielding
// (yielded = true) vCPU to the back of its home queue.
func (s *Scheduler) Requeue(v *VCPU, now uint64, yielded bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if yielded {
		s.ctr.Yields++
	} else {
		s.ctr.Preemptions++
	}
	v.enqueued = now
	s.push(v.Home, v)
}

// PurgeDomain removes every queued vCPU whose Running domain (or any
// saved call frame) is the dead domain, returning how many were
// purged. The monitor's destruction path calls this after the kill's
// grace period, so a killed domain can never be dispatched again — the
// trace oracle's dead-domain-silence property checks exactly that.
func (s *Scheduler) PurgeDomain(domain uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	purged := 0
	for _, c := range s.cores {
		q := s.queues[c]
		kept := q[:0]
		for _, v := range q {
			if v.references(domain) {
				purged++
				continue
			}
			kept = append(kept, v)
		}
		s.queues[c] = kept
	}
	s.ctr.Purged += uint64(purged)
	return purged
}

// references reports whether the vCPU would run or unwind into the
// domain.
func (v *VCPU) references(domain uint64) bool {
	if v.Domain == domain || v.Running == domain {
		return true
	}
	for _, f := range v.Frames {
		if f == domain {
			return true
		}
	}
	return false
}

// Quantum returns a vCPU's time slice in instructions.
func (s *Scheduler) Quantum() int { return s.pol.quantum() }

// Pending returns the number of queued (runnable, undispatched)
// vCPUs.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.cores {
		n += len(s.queues[c])
	}
	return n
}

// Depth returns core's current queue depth.
func (s *Scheduler) Depth(core phys.CoreID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queues[core])
}

// Counters returns the event tallies so far.
func (s *Scheduler) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctr
}

// RecordBarrierDrain tallies one round-barrier ring drain that executed
// ops submission descriptors. The monitor's scheduling engine calls it
// from the barrier phase, where all cores are quiescent — the drain is
// part of the deterministic schedule, so its tally lives here with the
// other schedule-shaped counters.
func (s *Scheduler) RecordBarrierDrain(ops uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctr.BarrierDrains++
	s.ctr.DrainedOps += ops
}

// Records returns the dispatch schedule so far.
func (s *Scheduler) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.recs...)
}

// Hash folds the dispatch schedule into one FNV-1a value — two runs
// scheduled identically (same seed, arrival order, cycle counts)
// produce equal hashes; any divergence in core assignment, order,
// stealing, or timing changes it.
func (s *Scheduler) Hash() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := fnv.New64a()
	var buf [8 * 5]byte
	for _, r := range s.recs {
		binary.LittleEndian.PutUint64(buf[0:], r.Seq)
		binary.LittleEndian.PutUint64(buf[8:], uint64(r.Core))
		binary.LittleEndian.PutUint64(buf[16:], r.Domain)
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

// Latencies returns the per-dispatch queue latency samples (cycles
// between enqueue and the dispatch decision).
func (s *Scheduler) Latencies() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.lats...)
}

// LatencyP99 returns the 99th-percentile transition-to-dispatch
// latency in cycles (0 with no samples).
func (s *Scheduler) LatencyP99() uint64 {
	return Percentile(s.Latencies(), 99)
}

// Percentile returns the p-th percentile (nearest-rank) of samples.
func Percentile(samples []uint64, p int) uint64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]uint64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
