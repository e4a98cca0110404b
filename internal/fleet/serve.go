package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

// invokeBudget bounds one request's simulated execution; it covers the
// service body plus the configured spin loop with wide margin.
const invokeBudget = 1_000_000

// ServeStats is one Serve call's outcome.
type ServeStats struct {
	Requests  uint64 // completed with a verified-correct reply
	Retries   uint64 // re-routed after a node fault or routing race
	NodeKills int    // nodes the control plane declared dead mid-run
}

// leakError is fatal: a reply did not match its service's transform,
// meaning isolation between tenants (or a half-migrated state) leaked
// into a response.
type leakError struct{ msg string }

func (e *leakError) Error() string { return e.msg }

// errLatch keeps the first fatal serving error.
type errLatch struct {
	mu  sync.Mutex
	err error
}

func (l *errLatch) set(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = err
	}
}

func (l *errLatch) get() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

var errNodeFault = &nodeFaultError{}

type nodeFaultError struct{}

func (e *nodeFaultError) Error() string { return "fleet: node machine check" }

// invoke runs one request on a placement: a mediated Call into the
// tenant on a held worker core, reply in Regs[1]. Machine checks — and
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
// load-balanced across the fleet, with `workers` host-side goroutines
// (default min(8, GOMAXPROCS)). Requests are issued in waves; between
// waves every live node is pulsed to a quiescent point so runtime-
// verification digests ship mid-serving, not only at the end.
//
// When a request dies on a machine check the control plane runs the
// node-death protocol (drain, crypto-erase, re-place) and the request
// retries on a surviving replica. Every reply is checked against the
// service transform; a mismatch is a cross-tenant leak and aborts.
func (f *Fleet) Serve(services []string, requests int, workers int) (ServeStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 8 {
			workers = 8
		}
	}
	var stats ServeStats
	var retries atomic.Uint64
	fatal := &errLatch{}
	const waves = 4
	perWave := (requests + waves - 1) / waves
	done := 0
	for w := 0; w < waves && done < requests; w++ {
		n := perWave
		if done+n > requests {
			n = requests - done
		}
		f.serveWave(services, done, n, workers, &retries, fatal)
		if err := fatal.get(); err != nil {
			return stats, err
		}
		done += n
		stats.Requests += uint64(n)
		// Quiescent pulse: checkpoints fire, digest intervals ship.
		f.Pulse()
		if err := f.Err(); err != nil {
			return stats, err
		}
	}
	stats.Retries = retries.Load()
	for _, n := range f.Nodes {
		if n.Failed() {
			stats.NodeKills++
		}
	}
	return stats, nil
}

func (f *Fleet) serveWave(services []string, offset, count, workers int, retries *atomic.Uint64, fatal *errLatch) {
	reqs := make(chan int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range reqs {
				if fatal.get() != nil {
					continue
				}
				svc := services[i%len(services)]
				arg := uint32(i) & 0xffff
				if err := f.serveOne(svc, arg, retries); err != nil {
					fatal.set(err)
				}
			}
		}()
	}
	for i := offset; i < offset+count; i++ {
		reqs <- i
	}
	close(reqs)
	wg.Wait()
}

// serveOne routes and executes a single request, retrying across the
// fleet until a correct reply lands or no replica remains.
func (f *Fleet) serveOne(service string, arg uint32, retries *atomic.Uint64) error {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			retries.Add(1)
		}
		if attempt > 64 {
			return fmt.Errorf("fleet: request to %q starved after %d attempts", service, attempt)
		}
		pl := f.lb.Pick(service)
		if pl == nil {
			if f.allDead() {
				return fmt.Errorf("fleet: no live replica of %q", service)
			}
			runtime.Gosched()
			continue
		}
		n := f.Nodes[pl.Node]
		c := n.acquireCore()
		got, err := f.invoke(n, pl, c, arg)
		n.releaseCore(c)
		pl.release()
		if err == errNodeFault {
			// The injector took the node down mid-request: run the
			// death protocol once, retry elsewhere.
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

func (f *Fleet) allDead() bool {
	for _, n := range f.Nodes {
		if !n.Failed() {
			return false
		}
	}
	return true
}

// LiveNodes counts nodes not declared dead.
func (f *Fleet) LiveNodes() int {
	live := 0
	for _, n := range f.Nodes {
		if !n.Failed() {
			live++
		}
	}
	return live
}

// Stats aggregates migration counters fleet-wide.
func (f *Fleet) Stats() core.Stats {
	var out core.Stats
	for _, n := range f.Nodes {
		s := n.Mon.Stats()
		out.MigrationsIn += s.MigrationsIn
		out.MigrationsOut += s.MigrationsOut
	}
	return out
}
