package fleet

import (
	"slices"
	"sort"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/phys"
)

// Placement is one service instance on one node.
type Placement struct {
	Service string
	Node    int
	Dom     core.DomainID
	Base    phys.Addr
	Delta   uint32
}

// Drain returns nil: a request runs to completion on the fleet's one
// thread, so a deregistered placement never has one in flight. It is
// kept only for benchmark/, which still calls it (ROADMAP benchmark
// queue (iv)).
func (p *Placement) Drain() error { return nil }

// LoadBalancer routes requests round-robin over a service's registered
// placements. Like the fleet it serves, it is one thread's object.
type LoadBalancer struct {
	reps map[string][]*Placement
	rr   map[string]uint64
}

func NewLoadBalancer() *LoadBalancer {
	return &LoadBalancer{reps: make(map[string][]*Placement), rr: make(map[string]uint64)}
}

// Register makes a placement routable, last in its service's rotation.
func (lb *LoadBalancer) Register(p *Placement) {
	lb.reps[p.Service] = append(lb.reps[p.Service], p)
}

// Deregister stops routing to one placement. Returns false if it was
// not registered.
func (lb *LoadBalancer) Deregister(p *Placement) bool {
	list := lb.reps[p.Service]
	i := slices.Index(list, p)
	if i < 0 {
		return false
	}
	lb.reps[p.Service] = slices.Delete(list, i, i+1)
	return true
}

// DeregisterNode stops routing to every placement on a node and
// returns them in a fixed order: by service name, then in registration
// order, so what is re-placed where is a function of the fleet's
// history.
func (lb *LoadBalancer) DeregisterNode(node int) []*Placement {
	services := make([]string, 0, len(lb.reps))
	for svc := range lb.reps {
		services = append(services, svc)
	}
	sort.Strings(services)
	var out []*Placement
	for _, svc := range services {
		lb.reps[svc] = slices.DeleteFunc(lb.reps[svc], func(p *Placement) bool {
			if p.Node == node {
				out = append(out, p)
				return true
			}
			return false
		})
	}
	return out
}

// Pick returns the service's next placement in round-robin order, or
// nil when it has none.
func (lb *LoadBalancer) Pick(service string) *Placement {
	list := lb.reps[service]
	start := lb.rr[service]
	lb.rr[service] = start + 1
	if len(list) == 0 {
		return nil
	}
	return list[start%uint64(len(list))]
}

// Placements snapshots a service's registered placements.
func (lb *LoadBalancer) Placements(service string) []*Placement {
	return append([]*Placement(nil), lb.reps[service]...)
}

// ReplicaNodes reports which node indexes currently host the service.
func (lb *LoadBalancer) ReplicaNodes(service string) map[int]bool {
	out := make(map[int]bool)
	for _, p := range lb.reps[service] {
		out[p.Node] = true
	}
	return out
}

// NodeCount returns how many placements a node hosts across services.
func (lb *LoadBalancer) NodeCount(node int) int {
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
