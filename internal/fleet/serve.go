package fleet

import (
	"errors"
	"fmt"

	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

// invokeBudget bounds one request's simulated execution; it covers the
// service body plus the configured spin loop with wide margin.
const invokeBudget = 1_000_000

// ServeStats is one Serve call's outcome.
type ServeStats struct {
	Requests  uint64 // completed with a verified-correct reply
	Retries   uint64 // re-routed after a node fault
	NodeKills int    // nodes the control plane declared dead mid-run
}

// leakError is fatal: a reply did not match its service's transform,
// meaning isolation between tenants (or a half-migrated state) leaked
// into a response.
type leakError struct{ msg string }

func (e *leakError) Error() string { return e.msg }

var errNodeFault = &nodeFaultError{}

type nodeFaultError struct{}

func (e *nodeFaultError) Error() string { return "fleet: node machine check" }

// invoke runs one request on a placement: a mediated Call into the
// tenant on worker core c, reply in Regs[1]. Machine checks — and
// any error on a node whose injector has started firing — surface as
// errNodeFault so the serving loop can fail the node instead of
// aborting the run.
func (f *Fleet) invoke(n *Node, pl *Placement, c phys.CoreID, arg uint32) (uint32, error) {
	nodeDying := func() bool {
		return n.Failed() || (n.Inj != nil && len(n.Inj.Fired()) > 0)
	}
	cpu := n.Mach.Cores[int(c)]
	cpu.Regs[2] = uint64(arg)
	if err := n.Mon.Call(c, pl.Dom); err != nil {
		if nodeDying() {
			return 0, errNodeFault
		}
		return 0, fmt.Errorf("call: %w", err)
	}
	res, err := n.Mon.RunCore(c, invokeBudget)
	if err != nil {
		if nodeDying() {
			return 0, errNodeFault
		}
		return 0, fmt.Errorf("run: %w", err)
	}
	switch res.Trap.Kind {
	case hw.TrapMachineCheck:
		return 0, errNodeFault
	case hw.TrapFault, hw.TrapIllegal:
		if nodeDying() {
			return 0, errNodeFault
		}
		return 0, fmt.Errorf("tenant trap: %v", res.Trap)
	}
	return uint32(cpu.Regs[1]), nil
}

// Serve pushes `requests` requests round-robin over `services`,
// load-balanced across the fleet, one after another on the caller's
// goroutine: each takes its node's next worker core in rotation, so a
// fleet's history is a function of its seed and the calls made on it.
// Requests are issued in waves; between waves every live node is pulsed
// to a quiescent point so runtime-verification digests ship
// mid-serving, not only at the end. A name with no deployed service is
// refused before anything runs. workers is unused: it is kept only for
// callers that still pass it (ROADMAP benchmark queue (iv)).
//
// When a request dies on a machine check the control plane runs the
// node-death protocol (crypto-erase, re-place) and the request retries
// on a surviving replica. A service with no replica left fails the
// call. Every reply is checked against the service transform; a
// mismatch is a cross-tenant leak and aborts.
func (f *Fleet) Serve(services []string, requests int, workers int) (ServeStats, error) {
	var stats ServeStats
	if len(services) == 0 {
		return stats, errors.New("fleet: serve: no services named")
	}
	for _, svc := range services {
		if f.tmpls[svc] == nil {
			return stats, fmt.Errorf("fleet: serve: unknown service %q", svc)
		}
	}
	const waves = 4
	perWave := (requests + waves - 1) / waves
	for i := 0; i < requests; i++ {
		if err := f.serveOne(services[i%len(services)], uint32(i)&0xffff, &stats.Retries); err != nil {
			return stats, err
		}
		stats.Requests++
		if stats.Requests%uint64(perWave) == 0 || i == requests-1 {
			// Quiescent pulse: checkpoints fire, digest intervals ship.
			f.Pulse()
			if err := f.Err(); err != nil {
				return stats, err
			}
		}
	}
	for _, n := range f.Nodes {
		if n.Failed() {
			stats.NodeKills++
		}
	}
	return stats, nil
}

// serveOne routes and executes a single request, retrying on another
// replica until a correct reply lands or none remains; each retry adds
// one to *retries. A retry follows a live node's death, so there are at
// most as many as there are nodes.
func (f *Fleet) serveOne(service string, arg uint32, retries *uint64) error {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			*retries++
		}
		pl := f.lb.Pick(service)
		if pl == nil {
			return fmt.Errorf("fleet: no live replica of %q", service)
		}
		n := f.Nodes[pl.Node]
		got, err := f.invoke(n, pl, n.nextCore(), arg)
		if err == errNodeFault && !n.Failed() {
			// The injector took the node down mid-request: run the
			// death protocol, retry elsewhere.
			f.FailNode(pl.Node)
			continue
		}
		if err != nil {
			return fmt.Errorf("fleet: %q on %s: %w", service, n.Name, err)
		}
		want := arg + pl.Delta
		if got != want {
			return &leakError{fmt.Sprintf(
				"fleet: LEAK %q on %s: reply %#x != %#x (arg %#x, delta %#x)",
				service, n.Name, got, want, arg, pl.Delta)}
		}
		return nil
	}
}
