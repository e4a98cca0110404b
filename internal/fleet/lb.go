package fleet

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/phys"
)

// Placement is one service instance on one node. live/inflight carry
// the drain protocol: Deregister flips live, then Drain spins until
// every request that won the tryAcquire race has released.
type Placement struct {
	Service string
	Node    int
	Dom     core.DomainID
	Base    phys.Addr
	Delta   uint32

	live     atomic.Bool
	inflight atomic.Int64
}

// tryAcquire claims one in-flight slot iff the placement is still
// routable. The increment happens before the liveness check so a
// concurrent Deregister either sees the request in the inflight count
// (and drains it) or the request sees dead and rolls back — no request
// can be in flight and invisible to Drain.
func (p *Placement) tryAcquire() bool {
	p.inflight.Add(1)
	if !p.live.Load() {
		p.inflight.Add(-1)
		return false
	}
	return true
}

func (p *Placement) release() { p.inflight.Add(-1) }

// Inflight returns the instantaneous in-flight request count.
func (p *Placement) Inflight() int64 { return p.inflight.Load() }

// Drain blocks until every in-flight request against this (already
// deregistered) placement has completed.
func (p *Placement) Drain() error {
	deadline := time.Now().Add(30 * time.Second)
	for p.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			return errDrainTimeout
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

var errDrainTimeout = timeoutError("fleet: drain timed out")

type timeoutError string

func (e timeoutError) Error() string { return string(e) }

// LoadBalancer routes requests round-robin over a service's live
// placements. A replica list in reps is never edited once stored:
// Register, Deregister and DeregisterNode store a fresh slice, so Pick
// walks the list it read under mu after the unlock, without a copy.
type LoadBalancer struct {
	mu   sync.Mutex
	reps map[string][]*Placement
	rr   map[string]uint64
}

func NewLoadBalancer() *LoadBalancer {
	return &LoadBalancer{reps: make(map[string][]*Placement), rr: make(map[string]uint64)}
}

// Register makes a placement routable.
func (lb *LoadBalancer) Register(p *Placement) {
	p.live.Store(true)
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.reps[p.Service] = append(slices.Clip(lb.reps[p.Service]), p)
}

// Deregister freezes one placement (routing stops immediately; the
// caller drains). Returns false if it was not registered.
func (lb *LoadBalancer) Deregister(p *Placement) bool {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	list := lb.reps[p.Service]
	for i, q := range list {
		if q == p {
			p.live.Store(false)
			lb.reps[p.Service] = append(append([]*Placement(nil), list[:i]...), list[i+1:]...)
			return true
		}
	}
	return false
}

// DeregisterNode freezes every placement on a node and returns them
// (undrained).
func (lb *LoadBalancer) DeregisterNode(node int) []*Placement {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	var out []*Placement
	for svc, list := range lb.reps {
		keep := list[:0:0]
		for _, p := range list {
			if p.Node == node {
				p.live.Store(false)
				out = append(out, p)
			} else {
				keep = append(keep, p)
			}
		}
		lb.reps[svc] = keep
	}
	return out
}

// Pick acquires a routable placement for the service (round-robin),
// or nil when none is live. The caller must release() after the
// request completes.
func (lb *LoadBalancer) Pick(service string) *Placement {
	lb.mu.Lock()
	list := lb.reps[service]
	start := lb.rr[service]
	lb.rr[service] = start + 1
	lb.mu.Unlock()
	for i := range list {
		p := list[(start+uint64(i))%uint64(len(list))]
		if p.tryAcquire() {
			return p
		}
	}
	return nil
}

// Placements snapshots a service's registered placements.
func (lb *LoadBalancer) Placements(service string) []*Placement {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return append([]*Placement(nil), lb.reps[service]...)
}

// ReplicaNodes reports which node indexes currently host the service.
func (lb *LoadBalancer) ReplicaNodes(service string) map[int]bool {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	out := make(map[int]bool)
	for _, p := range lb.reps[service] {
		out[p.Node] = true
	}
	return out
}

// NodeCount returns how many placements a node hosts across services.
func (lb *LoadBalancer) NodeCount(node int) int {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	n := 0
	for _, list := range lb.reps {
		for _, p := range list {
			if p.Node == node {
				n++
			}
		}
	}
	return n
}

// LB exposes the fleet's load balancer.
func (f *Fleet) LB() *LoadBalancer { return f.lb }
