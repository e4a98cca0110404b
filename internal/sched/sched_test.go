package sched

import (
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
)

func cores(ids ...int) []phys.CoreID {
	var out []phys.CoreID
	for _, id := range ids {
		out = append(out, phys.CoreID(id))
	}
	return out
}

// Placement must be a pure function of (seed, arrival order): the
// same adds land on the same queues, and a different seed rotates the
// cursor but stays deterministic.
func TestPlacementDeterministic(t *testing.T) {
	// Drain per core in ascending order, recording which *domain* each
	// slot held — the shape (three per core) is seed-invariant, the
	// domain→core assignment is what the cursor rotates.
	build := func(seed int64) []uint64 {
		s := New(Policy{Seed: seed}, cores(0, 1, 2, 3))
		var doms []uint64
		for d := uint64(10); d < 22; d++ {
			s.Add(d, 0)
		}
		for _, c := range s.Cores() {
			for {
				v, ok := s.Next(c)
				if !ok {
					break
				}
				doms = append(doms, v.Domain)
			}
		}
		return doms
	}
	a, b := build(7), build(7)
	if len(a) != 12 {
		t.Fatalf("expected 12 vCPUs drained, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement diverged at %d: %v vs %v", i, a, b)
		}
	}
	c := build(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("seed 7 and 8 produced identical placements %v", a)
	}
}

// New must sort and deduplicate the core set so decision order never
// depends on how the caller listed the cores.
func TestCoreOrderCanonical(t *testing.T) {
	s := New(Policy{}, cores(3, 1, 1, 0, 2, 3))
	got := s.Cores()
	want := cores(0, 1, 2, 3)
	if len(got) != len(want) {
		t.Fatalf("cores = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cores = %v, want %v", got, want)
		}
	}
}

// The steal rule: an idle core takes the tail of the deepest sibling
// queue, ties toward the lowest core ID, re-homing the vCPU.
func TestWorkStealing(t *testing.T) {
	s := New(Policy{}, cores(0, 1, 2))
	// Seed 0: placement cursor starts at core 0. Arrivals 1..5 land
	// 0,1,2,0,1 — core 0 and 1 have 2, core 2 has 1 after its own pop.
	for d := uint64(1); d <= 5; d++ {
		s.Add(d, 0)
	}
	if v, ok := s.Next(2); !ok || v.Domain != 3 || v.Stolen {
		t.Fatalf("core 2 should pop its own vCPU (domain 3), got %+v ok=%v", v, ok)
	}
	// Core 2 is now empty; cores 0 and 1 both hold 2 — the tie must
	// break to core 0, and the steal takes its *tail* (domain 4).
	v, ok := s.Next(2)
	if !ok || !v.Stolen {
		t.Fatalf("core 2 should steal, got %+v ok=%v", v, ok)
	}
	if v.Domain != 4 || v.Home != 2 {
		t.Fatalf("steal should take core 0's tail (domain 4) and re-home: %+v", v)
	}
	if s.Depth(0) != 1 || s.Depth(1) != 2 {
		t.Fatalf("queue depths after steal: core0=%d core1=%d", s.Depth(0), s.Depth(1))
	}
}

// PurgeDomain removes every queued vCPU running — or unwinding into —
// the dead domain.
func TestPurgeDomain(t *testing.T) {
	s := New(Policy{}, cores(0))
	s.Add(9, 0)       // becomes the frame holder below
	s.Add(8, 0)       // the survivor
	s.Add(7, 0)       // runs the doomed domain directly
	v, _ := s.Next(0) // pops domain 9
	// Simulate a mediated call chain: domain 9 called into 7 and was
	// preempted with 7's frame on its stack.
	v.Frames = []uint64{7}
	s.Requeue(v, 10, false)
	if n := s.PurgeDomain(7); n != 2 {
		t.Fatalf("purge removed %d vCPUs, want 2 (the direct one and the frame holder)", n)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d after purge, want 1", s.Pending())
	}
	if got, ok := s.Next(0); !ok || got.Domain != 8 {
		t.Fatalf("survivor should be domain 8, got %+v ok=%v", got, ok)
	}
	if c := s.Counters(); c.Purged != 2 {
		t.Fatalf("Counters().Purged = %d, want 2", c.Purged)
	}
}

// The quantum is the policy's, or the default for a zero policy.
func TestPolicyQuantum(t *testing.T) {
	s := New(Policy{Quantum: 100}, cores(0))
	if q := s.Quantum(); q != 100 {
		t.Fatalf("policy quantum = %d, want 100", q)
	}
	if q := New(Policy{}, cores(0)).Quantum(); q != DefaultQuantum {
		t.Fatalf("zero-policy quantum = %d, want %d", q, DefaultQuantum)
	}
}

// The schedule hash is stable across identical runs and sensitive to
// any dispatch-level divergence.
func TestScheduleHash(t *testing.T) {
	run := func(cycle uint64) *Scheduler {
		s := New(Policy{}, cores(0, 1))
		for d := uint64(1); d <= 4; d++ {
			s.Add(d, 0)
		}
		now := cycle
		for {
			idle := true
			for _, c := range s.Cores() {
				if v, ok := s.Next(c); ok {
					idle = false
					s.Dispatched(v, c, now)
					now += 100
				}
			}
			if idle {
				break
			}
		}
		return s
	}
	a, b := run(0), run(0)
	if a.Hash() != b.Hash() {
		t.Fatalf("identical runs hash differently: %#x vs %#x", a.Hash(), b.Hash())
	}
	if len(a.Records()) != 4 {
		t.Fatalf("expected 4 dispatch records, got %d", len(a.Records()))
	}
	if c := run(5); a.Hash() == c.Hash() {
		t.Fatal("cycle-shifted run must change the schedule hash")
	}
}

// Counters and latency sampling through a dispatch/requeue cycle.
func TestCountersAndLatency(t *testing.T) {
	s := New(Policy{}, cores(0))
	s.Add(1, 100)
	v, _ := s.Next(0)
	s.Dispatched(v, 0, 150)
	s.Requeue(v, 160, true) // yield
	v2, _ := s.Next(0)
	s.Dispatched(v2, 0, 200)
	s.Requeue(v2, 210, false) // preemption
	c := s.Counters()
	if c.Dispatches != 2 || c.Yields != 1 || c.Preemptions != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c.MaxQueueDepth != 1 {
		t.Fatalf("MaxQueueDepth = %d, want 1", c.MaxQueueDepth)
	}
	lats := s.Latencies()
	if len(lats) != 2 || lats[0] != 50 || lats[1] != 40 {
		t.Fatalf("latency samples = %v, want [50 40]", lats)
	}
	if p := s.LatencyP99(); p != 50 {
		t.Fatalf("p99 = %d, want 50", p)
	}
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		samples []uint64
		p       int
		want    uint64
	}{
		{nil, 99, 0},
		{[]uint64{5}, 99, 5},
		{[]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 50, 5},
		{[]uint64{10, 1, 7, 3}, 99, 10},
		{[]uint64{2, 4}, 100, 4},
	}
	for _, tc := range cases {
		if got := Percentile(tc.samples, tc.p); got != tc.want {
			t.Errorf("Percentile(%v, %d) = %d, want %d", tc.samples, tc.p, got, tc.want)
		}
	}
}
