package bench

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/sched"
)

func init() {
	register(Experiment{
		ID:    "C19",
		Title: "Multi-tenant oversubscription: N domains time-multiplexed over M cores",
		Paper: "§3 domains as the only abstraction: management code schedules tenants over monitor-enforced cores, no OS above the monitor",
		Gates: append([]Gate{
			{"dedicated-complete", "dedicated4_incomplete", eq(0), "4 dedicated tenants halt cleanly"},
			{"{points}-complete", "{points}_incomplete", eq(0), "every tenant runs to completion at every point"},
			{"{oversubscribed}-preempted", "{oversubscribed}_preemptions", gt(0), "more domains than cores: the timer preempts"},
			{"oversub-throughput", "oversub_ratio_16_4", ge(0.7), "§3: 16 domains over 4 cores keep 0.7x the dedicated throughput"},
			{"oversub-latency-sampled", "d16_c4_p99_dispatch_cycles", gt(0), "the scheduler samples transition-to-dispatch latency"},
			{"yield-mix", "yieldmix_incomplete", eq(0), "cooperative tenants complete"},
			{"yield-mix", "yieldmix_yields / yieldmix_yield_calls", eq(1), "every CallYield is counted exactly once"},
			{"kill-purged", "kill_purged_vcpus", ge(2), "the monitor drops the killed victim's queued vCPUs at dispatch"},
			{"kill-no-dispatch", "kill_victim_dispatches", eq(0), "a killed domain is never dispatched again"},
			{"kill-survivors", "kill_survivors_completed", eq(3), "the surviving tenants complete"},
		}, traceGates...),
	}, runC19)
}

// runC19 measures the preemptive multi-tenant scheduler (internal/sched,
// management code driving the monitor's vCPU mechanism) under
// oversubscription: N compute tenants scheduled over M cores, N ≫ M,
// swept across both axes.
//
// Throughput is measured in iterations per simulated kilocycle, so the
// numbers are bit-stable and the tracer can stay attached to the
// measured run itself (tracing costs host time only, never simulated
// cycles). Each sweep point also reports the p99 transition-to-dispatch
// latency from the scheduler's per-dispatch queue-latency samples.
//
// Three scenarios ride on top of the sweep: the dedicated baseline the
// 16/4 point is gated against (4 tenants on 4 dedicated cores, plain
// RunCores, no scheduler); a yield mix of cooperative tenants ending
// every slice with CallYield; and a kill, where a never-terminating
// tenant queued twice is ForceKilled mid-run (its queued vCPUs are
// dropped at dispatch and its dispatch records checked here, its
// dead-domain silence by the trace oracle).
//
// The 16/4 point's schedule hash is a note, so the Result pins it: two
// same-seed runs must replay it bit for bit (TestResultsAreHostIndependent;
// sched's TestScheduledDeterminism pins the same on a small world).
func runC19(cfg Config, res *Result) error {
	res.Columns = []string{"domains", "cores", "mode", "cycles", "iters", "it/kcyc", "p99 disp", "disp", "preempt", "steal", "maxq"}
	domSweep := []int{4, 8, 16, 32, 64}
	coreSweep := []int{1, 2, 4, 8}
	iters, quantum := 20_000, 8192
	if cfg.Quick {
		domSweep = []int{4, 16}
		coreSweep = []int{2, 4}
		iters, quantum = 4_000, 4096
	}
	res.note("quantum %d instructions, %d iterations per tenant, seed %d", quantum, iters, cfg.Seed)

	// point reports one run: its row, its metrics and its world's audit.
	point := func(tag string, domains, workers int, mode string, p *c19Point) {
		tput := float64(p.iters) / float64(p.cycles) * 1000
		res.row(fmt.Sprintf("%d", domains), fmt.Sprintf("%d", workers), mode,
			fmtU(p.cycles), fmtU(p.iters),
			fmt.Sprintf("%.2f", tput), fmtU(p.p99),
			fmtU(p.ctr.Dispatches), fmtU(p.ctr.Preemptions), fmtU(p.ctr.Steals), fmtU(p.ctr.MaxQueueDepth))
		res.incomplete(tag, p.unmet)
		p.w.audit(res, tag)
		res.metric(tag+"_cycles", float64(p.cycles))
		res.metric(tag+"_iters", float64(p.iters))
		res.metric(tag+"_iters_per_kcycle", tput)
		res.metric(tag+"_p99_dispatch_cycles", float64(p.p99))
		res.metric(tag+"_dispatches", float64(p.ctr.Dispatches))
		res.metric(tag+"_preemptions", float64(p.ctr.Preemptions))
		res.metric(tag+"_steals", float64(p.ctr.Steals))
		res.metric(tag+"_max_queue_depth", float64(p.ctr.MaxQueueDepth))
	}

	// Dedicated-core baseline: one tenant per core, no scheduler.
	base, err := runC19Dedicated(cfg, 4, iters)
	if err != nil {
		return fmt.Errorf("c19 dedicated baseline: %w", err)
	}
	point("dedicated4", 4, 4, "dedicated", base)

	var gate *c19Point
	for _, d := range domSweep {
		for _, w := range coreSweep {
			tag := fmt.Sprintf("d%d_c%d", d, w)
			p, err := runC19Sched(cfg, d, w, iters, quantum, false)
			if err != nil {
				return fmt.Errorf("c19 %s: %w", tag, err)
			}
			point(tag, d, w, "sched", p)
			res.sweep("points", tag)
			if d > w {
				res.sweep("oversubscribed", tag)
			}
			if d == 16 && w == 4 {
				gate = p
			}
		}
	}
	// The oversubscription gate's ratio: per-iteration throughput at the
	// 16/4 point against the dedicated baseline.
	res.metric("oversub_ratio_16_4", float64(gate.iters)/float64(gate.cycles)/(float64(base.iters)/float64(base.cycles)))
	res.note("16/4 schedule hash %#x over %d dispatch records", gate.hash, gate.ctr.Dispatches)

	// Cooperative tenants: every slice ends in CallYield, counted
	// exactly.
	yields := 64
	if cfg.Quick {
		yields = 16
	}
	ym, err := runC19Sched(cfg, 8, 2, yields, quantum, true)
	if err != nil {
		return fmt.Errorf("c19 yield mix: %w", err)
	}
	res.incomplete("yieldmix", ym.unmet)
	ym.w.audit(res, "yieldmix")
	res.metric("yieldmix_yields", float64(ym.ctr.Yields))
	res.metric("yieldmix_yield_calls", float64(8*yields))

	// Containment: kill a scheduled tenant mid-run.
	if err := runC19Kill(cfg, res, iters, quantum); err != nil {
		return fmt.Errorf("c19 kill: %w", err)
	}
	return nil
}

// c19Point is one measured scheduling run.
type c19Point struct {
	w      *world
	cycles uint64
	iters  uint64 // total tenant loop iterations completed
	p99    uint64 // p99 transition-to-dispatch latency, cycles
	hash   uint64 // dispatch-schedule hash
	ctr    sched.Counters
	unmet  []string // why the run is incomplete
}

// computeTenant builds the tenant workload: a pure compute loop of
// `iters` iterations ending in HLT. The count is baked into the text
// with MOVI — a scheduled dispatch launches with zeroed registers, so
// inputs cannot be poked in afterwards as the pinned-worker runs do.
func computeTenant(iters uint32) func(phys.Addr) *hw.Asm {
	return tenantLoop(iters, false)
}

// tenantLoop is the tenant program; with yield, a cooperative CallYield
// ends every iteration's slice.
func tenantLoop(iters uint32, yield bool) func(phys.Addr) *hw.Asm {
	return func(phys.Addr) *hw.Asm {
		a := hw.NewAsm()
		a.Movi(10, iters)
		a.Movi(12, 1)
		a.Label("loop")
		if yield {
			a.Movi(0, uint32(core.CallYield))
			a.Vmcall()
		}
		a.Sub(10, 10, 12)
		a.Jnz(10, "loop")
		a.Hlt()
		return a
	}
}

// loadTenants loads n copies of gen into a fresh world, shared over the
// scheduler's cores, and adds a vCPU for each one.
func loadTenants(w *world, q *sched.Scheduler, n int, gen func(base phys.Addr) *hw.Asm) ([]*libtyche.Domain, error) {
	var doms []*libtyche.Domain
	for i := 0; i < n; i++ {
		img, err := w.cl.BuildAt(fmt.Sprintf("tenant%d", i), gen)
		if err != nil {
			return nil, err
		}
		d, err := w.cl.Load(img, loadOn(q.Cores()...))
		if err != nil {
			return nil, err
		}
		if err := q.Add(d.ID()); err != nil {
			return nil, err
		}
		doms = append(doms, d)
	}
	return doms, nil
}

// schedWorld boots a world whose `workers` cores (dom0 idles on core
// 0) the seeded work-stealing scheduler manages.
func schedWorld(cfg Config, workers, quantum int) (*world, *sched.Scheduler, error) {
	opts := defaultWorldOpts()
	opts.cores = workers + 1
	w, err := newWorld(cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	return w, sched.New(w.mon, sched.Policy{Quantum: quantum, Seed: cfg.Seed}, workerCores(workers)), nil
}

// runC19Sched schedules `domains` tenants of `iters` iterations
// (yielding each one, or pure compute) over `workers` cores and runs
// them to completion.
func runC19Sched(cfg Config, domains, workers, iters, quantum int, yield bool) (*c19Point, error) {
	w, q, err := schedWorld(cfg, workers, quantum)
	if err != nil {
		return nil, err
	}
	if _, err := loadTenants(w, q, domains, tenantLoop(uint32(iters), yield)); err != nil {
		return nil, err
	}
	p := &c19Point{w: w, iters: uint64(domains) * uint64(iters)}
	before := w.mach.Clock.Cycles()
	if _, err := q.Run(8_000_000); err != nil {
		return nil, err
	}
	p.cycles = w.mach.Clock.Cycles() - before
	p.ctr = q.Counters()
	p.p99 = q.LatencyP99()
	p.hash = q.Hash()
	if p.ctr.Completed != uint64(domains) {
		p.unmet = append(p.unmet, fmt.Sprintf("completed %d of %d, pending %d", p.ctr.Completed, domains, q.Pending()))
	}
	return p, nil
}

// runC19Dedicated is the no-scheduler baseline: one compute tenant per
// dedicated core, plain RunCores.
func runC19Dedicated(cfg Config, domains, iters int) (*c19Point, error) {
	p, err := runPinned(cfg, pinnedSpec{
		name: "tenant", workers: domains, budget: 8_000_000,
		worker: func(*world, int) (pinnedWorker, error) {
			return pinnedWorker{gen: computeTenant(uint32(iters))}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &c19Point{w: p.w, cycles: p.cycles, iters: uint64(domains) * uint64(iters), unmet: p.unmet}, nil
}

// runC19Kill is the containment scenario: a victim that spins
// effectively forever, queued twice (two vCPUs), is ForceKilled while
// three finite tenants ride alongside.
func runC19Kill(cfg Config, res *Result, iters, quantum int) error {
	w, q, err := schedWorld(cfg, 2, quantum)
	if err != nil {
		return err
	}
	victims, err := loadTenants(w, q, 1, computeTenant(2_000_000_000))
	if err != nil {
		return err
	}
	victim := victims[0]
	if err := q.Add(victim.ID()); err != nil { // second vCPU
		return err
	}
	if _, err := loadTenants(w, q, 3, computeTenant(uint32(iters))); err != nil {
		return err
	}
	// First slice: everyone gets dispatched, nobody finishes; the
	// budget expires with both victim vCPUs requeued.
	if _, err := q.Run(2 * quantum); err != nil {
		return err
	}
	preKill := len(q.Records())
	if err := w.mon.ForceKill(victim.ID()); err != nil {
		return err
	}
	// The kill touched no queue: the victim's vCPUs are dropped when
	// their dispatch comes up.
	if _, err := q.Run(8_000_000); err != nil {
		return err
	}
	res.metric("kill_purged_vcpus", float64(q.Counters().Dropped))
	after := 0
	for _, r := range q.Records()[preKill:] {
		after += int(bit(r.Domain == victim.ID()))
	}
	res.metric("kill_victim_dispatches", float64(after))
	res.metric("kill_survivors_completed", float64(q.Counters().Completed))
	w.audit(res, "kill")
	return nil
}
