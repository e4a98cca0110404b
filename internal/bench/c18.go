package bench

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "C18",
		Title: "Monitor entry scalability: pinned readers and the revocation mutex over 1-8 cores",
		Paper: "§3 the monitor mediates every operation; mediation must not serialise multi-core execution",
		Run:   runC18,
	})
}

// runC18 runs the monitor's entry discipline at 1-8 cores under two
// workloads at opposite ends of it:
//
//	capring — the C15 share+revoke ring: every iteration delegates
//	          from a pinned reader entry and revokes via epoch-based
//	          detach (revocation mutex + grace period), the heaviest
//	          mutation mix the monitor serves;
//	storm   — a transition storm: each worker loops a mediated
//	          call+return into a private service domain, the pure
//	          read-path case: every entry pins an epoch, takes no
//	          top-level lock, and never waits on another core.
//
// Each sweep point runs once, with the cycle-stamped tracer and online
// invariant checker attached from boot (C17 gates that tracing moves no
// simulated cycle), and reports simulated cycles, completed op pairs
// and revocation-mutex acquisitions. What is
// gated is that mediation stays exact at every width: every worker
// drains, transitions and revocations are counted exactly, destructive
// entries all pass through the one instrumented lock, and the full
// history audits clean (dead-domain silence, shootdown acks,
// scrub-before-kill, exact count reconciliation). Wall-clock scaling
// with host threads is not claimed here; the host-time cost of the
// lock is core.lock_wait_pct in benchmark/.
func runC18(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C18", Title: "Monitor entry scalability (capring / transition storm)",
		Columns: []string{"workload", "workers", "cycles", "ops", "lock acqs"},
	}
	sweep := []int{1, 2, 4, 8}
	iters := 48
	if cfg.Quick {
		sweep = []int{1, 4}
		iters = 16
	}
	cfg.Trace = true

	workloads := []struct {
		key string
		// revokes marks a workload with destructive entries — the only
		// ones that take a top-level lock, so the only ones whose
		// acquisition count can be checked live.
		revokes bool
		run     func(workers int) (*pinnedRun, error)
	}{
		{"capring", true, func(workers int) (*pinnedRun, error) {
			r, err := runShareRevokeRing(cfg, workers, iters, nil)
			if err != nil {
				return nil, err
			}
			if r.revokes != r.ops {
				r.fail("revocations %d, want %d", r.revokes, r.ops)
			}
			return r.pinnedRun, nil
		}},
		{"storm", false, func(workers int) (*pinnedRun, error) {
			return runTransitionStorm(cfg, workers, iters)
		}},
	}

	for _, wl := range workloads {
		for _, workers := range sweep {
			tag := fmt.Sprintf("%s_w%d", wl.key, workers)
			p, err := wl.run(workers)
			if err != nil {
				return nil, fmt.Errorf("c18 %s: %w", tag, err)
			}
			pairs := uint64(workers * iters)
			res.row(wl.key, fmt.Sprintf("%d", workers), fmtU(p.cycles), fmtU(pairs), fmtU(p.lockAcqs))
			res.metric(tag+"_cycles", float64(p.cycles))
			res.metric(tag+"_ops", float64(pairs))
			res.metric(tag+"_lock_acquisitions", float64(p.lockAcqs))
			res.check(tag+"-complete", p.complete,
				"all %d workers drained %d op pairs%s", workers, iters, p.detail)
			if wl.revokes {
				res.check(tag+"-lock-instrumented", p.lockAcqs > 0,
					"revocation-mutex accounting live: %d acquisitions", p.lockAcqs)
			}
			p.w.traceClean(res, tag)
		}
	}
	return res, nil
}

// runTransitionStorm is the transition-storm workload: W caller
// domains, one per core, each looping a mediated call into a private
// service domain that returns immediately — 2*W*iters monitor-mediated
// transitions with zero capability mutations, all entered concurrently
// from RunCores.
func runTransitionStorm(cfg Config, workers, iters int) (*pinnedRun, error) {
	// Caller loop: mediated call into the service (entered at its entry,
	// returning via CallReturn), decrement, repeat. r7 = service domain
	// id, r10 = iteration count.
	prog := func(phys.Addr) *hw.Asm {
		a := hw.NewAsm()
		a.Movi(12, 1)
		a.Label("loop")
		a.Mov(1, 7)
		a.Movi(0, uint32(core.CallDomainCall))
		a.Vmcall()
		a.Jnz(0, "fail")
		endPinnedLoop(a, "loop")
		return a
	}
	services := make([]core.DomainID, workers)
	p, err := runPinned(cfg, pinnedSpec{
		name: "caller", workers: workers, budget: 100_000,
		worker: func(w *world, i int) (pinnedWorker, error) {
			svc, err := w.cl.Load(addImage(fmt.Sprintf("svc%d", i), 0), loadOn(phys.CoreID(i+1)))
			if err != nil {
				return pinnedWorker{}, err
			}
			services[i] = svc.ID()
			return pinnedWorker{gen: prog}, nil
		},
		regs: func(i int, _ []*libtyche.Domain) [hw.NumRegs]uint64 {
			return [hw.NumRegs]uint64{7: uint64(services[i]), 10: uint64(iters)}
		},
	})
	if err != nil {
		return nil, err
	}
	// Exact transition accounting: a call+return pair per iteration —
	// none lost, none duplicated.
	ops := uint64(workers * iters)
	if trans := p.after.Transitions - p.before.Transitions; trans != 2*ops {
		p.fail("transitions %d, want %d", trans, 2*ops)
	}
	if vmexits := p.after.VMExits - p.before.VMExits; vmexits < 2*ops {
		p.fail("vmexits %d < %d", vmexits, 2*ops)
	}
	return p, nil
}
