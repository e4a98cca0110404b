package bench

import (
	"fmt"
	"runtime"
	"time"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "C18",
		Title: "Monitor entry scalability: pinned readers and the revocation mutex over 1-8 cores",
		Paper: "§3 the monitor mediates every operation; mediation must not serialise multi-core execution",
		Run:   runC18,
	})
}

// runC18 measures how monitor-entry throughput scales with core count
// under two workloads at opposite ends of the entry discipline:
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
// Each sweep point reports wall time, simulated cycles, throughput,
// the time destructive entries spent blocked on the revocation mutex
// (LockWait — the one top-level lock an entry can wait on), the wait's
// share of total core-time, and throughput speedup relative to the
// single-worker run of the same workload.
//
// Timed runs are untraced; each sweep point is then re-run untimed
// with the cycle-stamped tracer and online invariant checker attached,
// so every configuration's full history is audited (dead-domain
// silence, shootdown acks, scrub-before-kill, exact count
// reconciliation) without perturbing the measurement.
func runC18(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C18", Title: "Monitor entry scalability (capring / transition storm)",
		Columns: []string{"workload", "workers", "wall us", "cycles", "ops", "kops/s", "lockwait us", "lock share", "speedup"},
	}
	res.metric("gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	if runtime.GOMAXPROCS(0) < 4 {
		res.note("host GOMAXPROCS=%d: workers time-share hardware threads, so wall-clock speedup cannot reflect the entry discipline here", runtime.GOMAXPROCS(0))
	}

	sweep := []int{1, 2, 4, 8}
	iters := 48
	if cfg.Quick {
		sweep = []int{1, 4}
		iters = 16
	}
	timed := cfg
	timed.Trace = false // timed runs are never traced
	valid := cfg
	valid.Trace = true // validation runs always are (no-op under notrace)

	type c18Point struct {
		wall     time.Duration
		cycles   uint64
		pairs    uint64 // completed workload op pairs
		lockWait time.Duration
		lockAcqs uint64
		complete bool
		detail   string
		w        *world
	}
	workloads := []struct {
		key string
		// revokes marks a workload with destructive entries — the only
		// ones that take a top-level lock, so the only ones whose
		// LockWait accounting can be checked live.
		revokes bool
		run     func(cfg Config, workers int) (*c18Point, error)
	}{
		{"capring", true, func(cfg Config, workers int) (*c18Point, error) {
			r, err := runShareRevokeRing(cfg, workers, iters, nil)
			if err != nil {
				return nil, err
			}
			return &c18Point{wall: r.wall, cycles: r.cycles, pairs: r.ops,
				lockWait: r.lockWait, lockAcqs: r.lockAcqs,
				complete: r.complete && r.revokes == r.ops, detail: r.detail, w: r.w}, nil
		}},
		{"storm", false, func(cfg Config, workers int) (*c18Point, error) {
			r, err := runTransitionStorm(cfg, workers, iters)
			if err != nil {
				return nil, err
			}
			return &c18Point{wall: r.wall, cycles: r.cycles, pairs: r.ops,
				lockWait: r.lockWait, lockAcqs: r.lockAcqs,
				complete: r.complete, detail: r.detail, w: r.w}, nil
		}},
	}

	for _, wl := range workloads {
		var base float64 // single-worker throughput (pairs/sec)
		for _, workers := range sweep {
			tag := fmt.Sprintf("%s_w%d", wl.key, workers)
			p, err := wl.run(timed, workers)
			if err != nil {
				return nil, fmt.Errorf("c18 %s: %w", tag, err)
			}
			tput := float64(p.pairs) / p.wall.Seconds()
			if workers == sweep[0] {
				base = tput
			}
			share := float64(p.lockWait) / (float64(workers) * float64(p.wall))
			speedup := tput / base
			res.row(wl.key, fmt.Sprintf("%d", workers),
				fmt.Sprintf("%d", p.wall.Microseconds()), fmtU(p.cycles), fmtU(p.pairs),
				fmt.Sprintf("%.0f", tput/1e3),
				fmt.Sprintf("%d", p.lockWait.Microseconds()),
				fmt.Sprintf("%.1f%%", share*100),
				fmt.Sprintf("%.2fx", speedup))
			res.metric(tag+"_wall_ns", float64(p.wall.Nanoseconds()))
			res.metric(tag+"_cycles", float64(p.cycles))
			res.metric(tag+"_ops", float64(p.pairs))
			res.metric(tag+"_ops_per_sec", tput)
			res.metric(tag+"_lockwait_ns", float64(p.lockWait.Nanoseconds()))
			res.metric(tag+"_lock_share", share)
			res.metric(tag+"_speedup_vs_w1", speedup)
			res.check(tag+"-complete", p.complete,
				"all %d workers drained %d op pairs%s", workers, iters, p.detail)
			if wl.revokes {
				res.check(tag+"-lock-instrumented", p.lockAcqs > 0,
					"revocation-mutex accounting live: %d acquisitions, %s waiting", p.lockAcqs, p.lockWait)
			}

			// Untimed validation: identical configuration, tracer+checker
			// attached from boot, full-history audit.
			if trace.Compiled {
				v, err := wl.run(valid, workers)
				if err != nil {
					return nil, fmt.Errorf("c18 %s (traced): %w", tag, err)
				}
				res.check(tag+"-traced-complete", v.complete,
					"traced validation run drained all op pairs%s", v.detail)
				v.w.traceClean(res, tag)
			}
		}
	}
	if !trace.Compiled {
		res.note("notrace build: per-point trace validation skipped (tracing compiled out)")
	}
	return res, nil
}

// stormRun is one execution of the transition-storm workload: W caller
// domains, one per core, each looping a mediated call into a private
// service domain that returns immediately — 2*W*iters monitor-mediated
// transitions with zero capability mutations, all entered concurrently
// from RunCores.
type stormRun struct {
	w        *world
	wall     time.Duration
	cycles   uint64
	ops      uint64 // call+return pairs issued
	trans    uint64 // transition count observed by Stats
	vmexits  uint64
	lockWait time.Duration
	lockAcqs uint64
	complete bool
	detail   string
}

func runTransitionStorm(cfg Config, workers, iters int) (*stormRun, error) {
	opts := defaultWorldOpts()
	opts.cores = workers + 1 // dom0 idles on core 0
	w, err := newWorld(cfg, opts)
	if err != nil {
		return nil, err
	}
	// Caller loop: mediated call into the service (entered at its entry,
	// returning via CallReturn), decrement, repeat.
	prog := func(base phys.Addr) *hw.Asm {
		a := hw.NewAsm()
		a.Movi(12, 1)
		a.Label("loop")
		a.Mov(1, 7) // service domain id
		a.Movi(0, uint32(core.CallDomainCall))
		a.Vmcall()
		a.Jnz(0, "fail")
		a.Sub(10, 10, 12)
		a.Jnz(10, "loop")
		a.Hlt()
		a.Label("fail")
		a.Movi(15, 0xdead)
		a.Hlt()
		return a
	}
	type pair struct {
		caller  *libtyche.Domain
		service *libtyche.Domain
		core    phys.CoreID
	}
	var ps []*pair
	for i := 0; i < workers; i++ {
		coreID := phys.CoreID(i + 1)
		lo := libtyche.DefaultLoadOptions()
		lo.Cores = []phys.CoreID{coreID}
		lo.Seal = false
		svc, err := w.cl.Load(addImage(fmt.Sprintf("svc%d", i), 0), lo)
		if err != nil {
			return nil, err
		}
		img, err := buildAt(w.cl, fmt.Sprintf("caller%d", i), prog)
		if err != nil {
			return nil, err
		}
		caller, err := w.cl.Load(img, lo)
		if err != nil {
			return nil, err
		}
		ps = append(ps, &pair{caller: caller, service: svc, core: coreID})
	}
	r := &stormRun{w: w, ops: uint64(workers * iters)}
	statsBefore := w.mon.Stats()
	cyclesBefore := w.mach.Clock.Cycles()
	var cores []phys.CoreID
	for _, p := range ps {
		if err := p.caller.Launch(p.core); err != nil {
			return nil, err
		}
		c := w.mach.Core(p.core)
		c.Regs[7] = uint64(p.service.ID())
		c.Regs[10] = uint64(iters)
		cores = append(cores, p.core)
	}
	waitBefore, acqBefore := w.mon.LockWait()
	start := time.Now()
	runs, err := w.mon.RunCores(100_000, cores...)
	r.wall = time.Since(start)
	if err != nil {
		return nil, err
	}
	waitAfter, acqAfter := w.mon.LockWait()
	r.lockWait, r.lockAcqs = waitAfter-waitBefore, acqAfter-acqBefore
	r.cycles = w.mach.Clock.Cycles() - cyclesBefore
	statsAfter := w.mon.Stats()
	r.trans = statsAfter.Transitions - statsBefore.Transitions
	r.vmexits = statsAfter.VMExits - statsBefore.VMExits

	r.complete = true
	for _, p := range ps {
		run, ok := runs[p.core]
		c := w.mach.Core(p.core)
		if !ok || run.Trap.Kind != hw.TrapHalt || c.Regs[10] != 0 || c.Regs[15] == 0xdead {
			r.complete = false
			r.detail = fmt.Sprintf("core %v: trap=%v r10=%d r15=%#x", p.core, run.Trap, c.Regs[10], c.Regs[15])
		}
	}
	// Exact transition accounting: one launch per caller plus a
	// call+return pair per iteration — none lost, none duplicated.
	if want := uint64(workers) + 2*r.ops; r.trans != want {
		r.complete = false
		r.detail = fmt.Sprintf(" (transitions %d, want %d)", r.trans, want)
	}
	if r.vmexits < 2*r.ops {
		r.complete = false
		r.detail = fmt.Sprintf(" (vmexits %d < %d)", r.vmexits, 2*r.ops)
	}
	return r, nil
}
