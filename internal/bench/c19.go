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
		Paper: "§3 domains as the only abstraction: tenants share cores under monitor scheduling, no OS above the monitor",
		Run:   runC19,
	})
}

// runC19 measures the preemptive multi-tenant scheduler (internal/sched
// plus core's round-barrier engine) under oversubscription: N compute
// tenants scheduled over M cores, N ≫ M, swept across both axes.
//
// Throughput is measured in iterations per simulated kilocycle, so the
// numbers are bit-stable and the tracer can stay attached to the
// measured run itself (tracing costs host time only, never simulated
// cycles). Each sweep point also reports the p99 transition-to-dispatch
// latency from the scheduler's per-dispatch queue-latency samples.
//
// Three scenario checks ride on top of the sweep:
//
//	dedicated A/B — 4 tenants on 4 dedicated cores (plain RunCores, no
//	    policy) is the baseline; the acceptance gate requires 16
//	    domains over 4 cores to keep >= 0.7x its per-iteration
//	    throughput despite dispatch overhead;
//	yield mix — cooperative tenants ending every slice with CallYield;
//	    the yield count must be exact;
//	kill purge — a never-terminating tenant queued twice is ForceKilled
//	    mid-run; its queued vCPUs must be purged and never dispatched
//	    again (cross-checked against the dispatch records here and by
//	    the trace oracle's dead-domain silence over KTransition).
//
// The 16/4 point's schedule hash is a note, so the Result pins it: two
// same-seed runs must replay it bit for bit (TestResultsAreHostIndependent;
// core's TestScheduledDeterminism pins the same at the monitor).
func runC19(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C19", Title: "Multi-tenant oversubscription throughput (scheduled domains over shared cores)",
		Columns: []string{"domains", "cores", "mode", "cycles", "iters", "it/kcyc", "p99 disp", "disp", "preempt", "steal", "maxq"},
	}
	domSweep := []int{4, 8, 16, 32, 64}
	coreSweep := []int{1, 2, 4, 8}
	iters, quantum := 20_000, 8192
	if cfg.Quick {
		domSweep = []int{4, 16}
		coreSweep = []int{2, 4}
		iters, quantum = 4_000, 4096
	}
	res.note("quantum %d instructions, %d iterations per tenant, seed %d", quantum, iters, cfg.Seed)

	addRow := func(domains, workers int, mode string, p *c19Point) {
		tput := float64(p.iters) / float64(p.cycles) * 1000
		res.row(fmt.Sprintf("%d", domains), fmt.Sprintf("%d", workers), mode,
			fmtU(p.cycles), fmtU(p.iters),
			fmt.Sprintf("%.2f", tput), fmtU(p.p99),
			fmtU(p.ctr.Dispatches), fmtU(p.ctr.Preemptions), fmtU(p.ctr.Steals), fmtU(p.ctr.MaxQueueDepth))
	}
	pointMetrics := func(tag string, p *c19Point) {
		res.metric(tag+"_cycles", float64(p.cycles))
		res.metric(tag+"_iters", float64(p.iters))
		res.metric(tag+"_iters_per_kcycle", float64(p.iters)/float64(p.cycles)*1000)
		res.metric(tag+"_p99_dispatch_cycles", float64(p.p99))
		res.metric(tag+"_dispatches", float64(p.ctr.Dispatches))
		res.metric(tag+"_preemptions", float64(p.ctr.Preemptions))
		res.metric(tag+"_steals", float64(p.ctr.Steals))
		res.metric(tag+"_max_queue_depth", float64(p.ctr.MaxQueueDepth))
	}

	// Dedicated-core baseline: one tenant per core, no scheduler.
	base, err := runC19Dedicated(cfg, 4, iters)
	if err != nil {
		return nil, fmt.Errorf("c19 dedicated baseline: %w", err)
	}
	addRow(4, 4, "dedicated", base)
	pointMetrics("dedicated4", base)
	res.check("dedicated-complete", base.complete, "4 dedicated tenants halted cleanly%s", base.detail)
	base.w.traceClean(res, "dedicated4")
	baseTput := float64(base.iters) / float64(base.cycles)

	var gate *c19Point
	for _, d := range domSweep {
		for _, w := range coreSweep {
			tag := fmt.Sprintf("d%d_c%d", d, w)
			p, err := runC19Sched(cfg, d, w, iters, quantum, false)
			if err != nil {
				return nil, fmt.Errorf("c19 %s: %w", tag, err)
			}
			addRow(d, w, "sched", p)
			pointMetrics(tag, p)
			res.check(tag+"-complete", p.complete,
				"all %d tenants over %d core(s) ran to completion%s", d, w, p.detail)
			if d > w {
				res.check(tag+"-preempted", p.ctr.Preemptions > 0,
					"oversubscribed point saw %d timer preemptions", p.ctr.Preemptions)
			}
			p.w.traceClean(res, tag)
			if d == 16 && w == 4 {
				gate = p
			}
		}
	}

	// Acceptance gate: oversubscription overhead bounded at the 16/4
	// point.
	gateTput := float64(gate.iters) / float64(gate.cycles)
	ratio := gateTput / baseTput
	res.metric("oversub_ratio_16_4", ratio)
	res.check("oversub-throughput", ratio >= 0.7,
		"16 domains / 4 cores at %.2fx the dedicated per-iteration throughput (gate 0.7x)", ratio)
	res.check("oversub-latency-sampled", gate.p99 > 0,
		"p99 transition-to-dispatch latency %d cycles over %d dispatches", gate.p99, gate.ctr.Dispatches)

	res.note("16/4 schedule hash %#x over %d dispatch records", gate.hash, gate.ctr.Dispatches)

	// Cooperative tenants: every slice ends in CallYield, counted
	// exactly.
	yields := 64
	if cfg.Quick {
		yields = 16
	}
	ym, err := runC19Sched(cfg, 8, 2, yields, quantum, true)
	if err != nil {
		return nil, fmt.Errorf("c19 yield mix: %w", err)
	}
	res.check("yield-mix", ym.complete && ym.ctr.Yields == uint64(8*yields),
		"8 cooperative tenants yielded %d times (want exactly %d)%s", ym.ctr.Yields, 8*yields, ym.detail)
	ym.w.traceClean(res, "yieldmix")

	// Containment: kill a scheduled tenant mid-run.
	kill, err := runC19Kill(cfg, iters, quantum)
	if err != nil {
		return nil, fmt.Errorf("c19 kill: %w", err)
	}
	res.metric("kill_purged_vcpus", float64(kill.purged))
	res.check("kill-purged", kill.purged >= 2,
		"ForceKill purged %d queued vCPUs of the victim (want >= 2)", kill.purged)
	res.check("kill-no-dispatch", kill.victimAfter == 0,
		"%d dispatches of the killed domain after its destruction (want 0, %d records checked)",
		kill.victimAfter, kill.records)
	res.check("kill-survivors", kill.survivorsDone, "the 3 surviving tenants all completed")
	kill.w.traceClean(res, "kill")
	return res, nil
}

// c19Point is one measured scheduling run.
type c19Point struct {
	w        *world
	cycles   uint64
	iters    uint64 // total tenant loop iterations completed
	p99      uint64 // p99 transition-to-dispatch latency, cycles
	hash     uint64 // dispatch-schedule hash
	ctr      sched.Counters
	complete bool
	detail   string
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
// given worker cores, and schedules each one.
func loadTenants(w *world, n int, cores []phys.CoreID, gen func(base phys.Addr) *hw.Asm) ([]*libtyche.Domain, error) {
	var doms []*libtyche.Domain
	for i := 0; i < n; i++ {
		img, err := w.cl.BuildAt(fmt.Sprintf("tenant%d", i), gen)
		if err != nil {
			return nil, err
		}
		d, err := w.cl.Load(img, loadOn(cores...))
		if err != nil {
			return nil, err
		}
		if err := w.mon.Schedule(d.ID()); err != nil {
			return nil, err
		}
		doms = append(doms, d)
	}
	return doms, nil
}

// schedWorld boots a world whose `workers` cores (dom0 idles on core
// 0) run under the seeded work-stealing scheduler policy.
func schedWorld(cfg Config, workers, quantum int) (*world, []phys.CoreID, error) {
	opts := defaultWorldOpts()
	opts.cores = workers + 1
	w, err := newWorld(cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	w.mon.SetSchedPolicy(&sched.Policy{Quantum: quantum, Seed: cfg.Seed})
	return w, workerCores(workers), nil
}

// runC19Sched schedules `domains` tenants of `iters` iterations
// (yielding each one, or pure compute) over `workers` cores and runs
// them to completion.
func runC19Sched(cfg Config, domains, workers, iters, quantum int, yield bool) (*c19Point, error) {
	w, cores, err := schedWorld(cfg, workers, quantum)
	if err != nil {
		return nil, err
	}
	if _, err := loadTenants(w, domains, cores, tenantLoop(uint32(iters), yield)); err != nil {
		return nil, err
	}
	p := &c19Point{w: w, iters: uint64(domains) * uint64(iters)}
	before := w.mach.Clock.Cycles()
	if _, err := w.mon.RunCores(8_000_000, cores...); err != nil {
		return nil, err
	}
	p.cycles = w.mach.Clock.Cycles() - before
	q := w.mon.Scheduler()
	p.ctr = q.Counters()
	p.p99 = q.LatencyP99()
	p.hash = q.Hash()
	st := w.mon.Stats()
	p.complete = st.SchedCompleted == uint64(domains)
	if !p.complete {
		p.detail = fmt.Sprintf(" (completed %d of %d, pending %d)", st.SchedCompleted, domains, q.Pending())
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
	return &c19Point{w: p.w, cycles: p.cycles, iters: uint64(domains) * uint64(iters),
		complete: p.complete, detail: p.detail}, nil
}

// c19Kill is the containment scenario's outcome.
type c19Kill struct {
	w             *world
	purged        uint64 // queued victim vCPUs removed by ForceKill
	victimAfter   int    // victim dispatches recorded after the kill
	records       int    // total dispatch records checked
	survivorsDone bool
}

func runC19Kill(cfg Config, iters, quantum int) (*c19Kill, error) {
	w, cores, err := schedWorld(cfg, 2, quantum)
	if err != nil {
		return nil, err
	}
	// The victim spins effectively forever and is queued twice (two
	// vCPUs); three finite tenants ride alongside.
	victims, err := loadTenants(w, 1, cores, computeTenant(2_000_000_000))
	if err != nil {
		return nil, err
	}
	victim := victims[0]
	if err := w.mon.Schedule(victim.ID()); err != nil { // second vCPU
		return nil, err
	}
	if _, err := loadTenants(w, 3, cores, computeTenant(uint32(iters))); err != nil {
		return nil, err
	}
	// First slice: everyone gets dispatched, nobody finishes; the
	// budget expires with both victim vCPUs requeued.
	if _, err := w.mon.RunCores(2*quantum, cores...); err != nil {
		return nil, err
	}
	preKill := len(w.mon.Scheduler().Records())
	if err := w.mon.ForceKill(victim.ID()); err != nil {
		return nil, err
	}
	k := &c19Kill{w: w, purged: w.mon.Stats().SchedPurged}
	if _, err := w.mon.RunCores(8_000_000, cores...); err != nil {
		return nil, err
	}
	recs := w.mon.Scheduler().Records()
	k.records = len(recs)
	for _, r := range recs[preKill:] {
		if r.Domain == uint64(victim.ID()) {
			k.victimAfter++
		}
	}
	k.survivorsDone = w.mon.Stats().SchedCompleted == 3
	return k, nil
}
