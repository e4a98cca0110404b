package sched

import (
	"testing"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/phys"
)

func cores(ids ...int) []phys.CoreID {
	var out []phys.CoreID
	for _, id := range ids {
		out = append(out, phys.CoreID(id))
	}
	return out
}

// add queues a vCPU handle for domain d with no monitor behind it: the
// queue rules alone.
func add(s *Scheduler, d uint64) { s.enqueue(core.VCPU{Domain: core.DomainID(d)}) }

// Placement must be a pure function of (seed, arrival order): the
// same adds land on the same queues, and a different seed rotates the
// cursor but stays deterministic.
func TestPlacementDeterministic(t *testing.T) {
	// Drain per core in ascending order, recording which *domain* each
	// slot held — the shape (three per core) is seed-invariant, the
	// domain→core assignment is what the cursor rotates.
	build := func(seed int64) []uint64 {
		s := New(nil, Policy{Seed: seed}, cores(0, 1, 2, 3))
		var doms []uint64
		for d := uint64(10); d < 22; d++ {
			add(s, d)
		}
		for _, c := range s.Cores() {
			for {
				v, ok := s.next(c)
				if !ok {
					break
				}
				doms = append(doms, uint64(v.id.Domain))
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
	s := New(nil, Policy{}, cores(3, 1, 1, 0, 2, 3))
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
	s := New(nil, Policy{}, cores(0, 1, 2))
	// Seed 0: placement cursor starts at core 0. Arrivals 1..5 land
	// 0,1,2,0,1 — core 0 and 1 have 2, core 2 has 1 after its own pop.
	for d := uint64(1); d <= 5; d++ {
		add(s, d)
	}
	if v, ok := s.next(2); !ok || v.id.Domain != 3 || v.stolen {
		t.Fatalf("core 2 should pop its own vCPU (domain 3), got %+v ok=%v", v, ok)
	}
	// Core 2 is now empty; cores 0 and 1 both hold 2 — the tie must
	// break to core 0, and the steal takes its *tail* (domain 4).
	v, ok := s.next(2)
	if !ok || !v.stolen {
		t.Fatalf("core 2 should steal, got %+v ok=%v", v, ok)
	}
	if v.id.Domain != 4 || v.home != 2 {
		t.Fatalf("steal should take core 0's tail (domain 4) and re-home: %+v", v)
	}
	if s.Depth(0) != 1 || s.Depth(1) != 2 {
		t.Fatalf("queue depths after steal: core0=%d core1=%d", s.Depth(0), s.Depth(1))
	}
}

// The quantum is the policy's, or the default for a zero policy.
func TestPolicyQuantum(t *testing.T) {
	s := New(nil, Policy{Quantum: 100}, cores(0))
	if q := s.Quantum(); q != 100 {
		t.Fatalf("policy quantum = %d, want 100", q)
	}
	if q := New(nil, Policy{}, cores(0)).Quantum(); q != DefaultQuantum {
		t.Fatalf("zero-policy quantum = %d, want %d", q, DefaultQuantum)
	}
}

// The schedule hash is stable across identical runs and sensitive to
// any dispatch-level divergence.
func TestScheduleHash(t *testing.T) {
	run := func(cycle uint64) *Scheduler {
		s := New(nil, Policy{}, cores(0, 1))
		for d := uint64(1); d <= 4; d++ {
			add(s, d)
		}
		now := cycle
		for {
			idle := true
			for _, c := range s.Cores() {
				if v, ok := s.next(c); ok {
					idle = false
					s.dispatched(v, c, v.id.Domain, now)
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
	s := New(nil, Policy{}, cores(0))
	add(s, 1)
	v, _ := s.next(0)
	v.enqueued = 100
	s.dispatched(v, 0, 1, 150)
	s.requeue(v, 160)
	v2, _ := s.next(0)
	s.dispatched(v2, 0, 1, 200)
	s.requeue(v2, 210)
	c := s.Counters()
	if c.Dispatches != 2 || c.Steals != 0 {
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
