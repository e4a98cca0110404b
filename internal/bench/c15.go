package bench

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/image"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "C15",
		Title: "SMP exactness under interleaving: capability ops and transitions from 1-8 cores stay exact",
		Paper: "§3.2 exact system-wide reference counts; §3 the monitor mediates every operation, at every width",
		Gates: append([]Gate{
			{"{capring}-complete", "{capring}_incomplete", eq(0), "every worker drains its loop"},
			{"{capring}-refcounts-restored", "{capring}_shared_scratch_runs", eq(0), "§3.2: exact refcounts: every scratch page back at 1"},
			{"{capring}-ops-exact", "{capring}_revocations / {capring}_ops", eq(1), "one revocation per iteration, none lost or duplicated"},
			{"{capring}-ops-exact", "{capring}_vmexits / {capring}_ops", ge(2), "every share and revoke is a monitor entry"},
			{"{capring}-generation-advances", "{capring}_generations", gt(0), "revocations advance the capability generation"},
			{"{storm}-complete", "{storm}_incomplete", eq(0), "every worker drains its loop"},
			{"{storm}-ops-exact", "{storm}_transitions / {storm}_ops", eq(2), "§3: two mediated transitions per call+return"},
			{"{storm}-ops-exact", "{storm}_vmexits / {storm}_ops", ge(2), "every call and return is a monitor entry"},
		}, traceGates...),
	}, runC15)
}

// runC15 is the multi-core interleaving experiment. W worker domains,
// one per core, run side by side under Monitor.RunCores, which steps the
// cores in turn a quantum at a time, so each worker's monitor entries
// land between the others' — in an order fixed by the run, not by the
// host. Two workloads sit at opposite ends of the monitor's entry
// discipline:
//
//	capring — each worker shares its private scratch page to the next
//	          worker in the ring and immediately revokes the share: a
//	          delegation, then a detach and its retire — the heaviest
//	          mutation mix the monitor serves;
//	storm   — each worker loops a mediated call+return into a private
//	          service domain: the pure transition path.
//
// Each sweep point runs once, on a world the online invariant checker
// audits from boot (C21 gates that observing moves no simulated cycle),
// and the gate table holds every width. Every figure, the w>1 cycle
// totals included, is a function of the seed. Wall-clock scaling with
// host threads is not claimed.
func runC15(cfg Config, res *Result) error {
	res.Columns = []string{"workload", "workers", "ops", "cycles", "cyc/op", "vmexits"}
	sweep, iters := []int{1, 2, 4, 8}, 48
	if cfg.Quick {
		sweep, iters = []int{1, 4}, 16
	}
	for _, workers := range sweep {
		if err := c15Capring(cfg, res, workers, iters); err != nil {
			return fmt.Errorf("c15 capring_w%d: %w", workers, err)
		}
	}
	for _, workers := range sweep {
		if err := c15Storm(cfg, res, workers, iters); err != nil {
			return fmt.Errorf("c15 storm_w%d: %w", workers, err)
		}
	}
	return nil
}

// c15Point reports what both workloads share at one sweep point — the
// row, the counts, completion and the world's audit — and returns the
// point's tag.
func c15Point(res *Result, key string, workers, iters int, p *pinnedRun) string {
	tag := fmt.Sprintf("%s_w%d", key, workers)
	ops := uint64(workers * iters)
	vmexits := p.after.VMExits - p.before.VMExits
	res.row(key, fmt.Sprintf("%d", workers), fmtU(ops), fmtU(p.cycles), fmtU(p.cycles/ops),
		fmtU(vmexits))
	res.sweep(key, tag)
	res.metric(tag+"_cycles", float64(p.cycles))
	res.metric(tag+"_ops", float64(ops))
	res.metric(tag+"_vmexits", float64(vmexits))
	res.incomplete(tag, p.unmet)
	p.w.audit(res, tag)
	return tag
}

// ringProg is the capring worker image: share-scratch-then-revoke in a
// loop. All configuration arrives in registers: r6 = scratch capability
// node, r7 = destination domain, r8/r9 = scratch start/size, r10 =
// iteration count, r11 = rights | cleanup<<16.
func ringProg(phys.Addr) *hw.Asm {
	a := hw.NewAsm()
	a.Movi(12, 1)
	a.Label("loop")
	a.Mov(1, 6)
	a.Mov(2, 7)
	a.Mov(3, 8)
	a.Mov(4, 9)
	a.Mov(5, 11)
	a.Movi(0, uint32(core.CallShare))
	a.Vmcall()
	a.Jnz(0, "fail")
	// r1 now holds the derived node; revoke it straight away.
	a.Movi(0, uint32(core.CallRevoke))
	a.Vmcall()
	a.Jnz(0, "fail")
	endPinnedLoop(a, "loop")
	return a
}

// c15Capring runs the share+revoke ring: each worker shares its private
// scratch page to the next worker (dom0 when alone) and revokes the
// share, iters times.
func c15Capring(cfg Config, res *Result, workers, iters int) error {
	var genBefore uint64
	p, err := runPinned(cfg, pinnedSpec{
		name: "worker", workers: workers, budget: 100_000,
		worker: func(*world, int) (pinnedWorker, error) {
			return pinnedWorker{gen: ringProg, extras: []func(*image.Image){
				func(img *image.Image) { img.WithBSS(".scratch", phys.PageSize) },
			}}, nil
		},
		regs: func(i int, doms []*libtyche.Domain) [hw.NumRegs]uint64 {
			dst := core.InitialDomain
			if workers > 1 {
				dst = doms[(i+1)%workers].ID()
			}
			scratch, _ := doms[i].SegmentRegion(".scratch")
			node, _ := doms[i].SegmentNode(".scratch")
			return [hw.NumRegs]uint64{
				6: uint64(node), 7: uint64(dst),
				8: uint64(scratch.Start), 9: scratch.Size(),
				10: uint64(iters),
				11: uint64(cap.MemRW) | uint64(cap.CleanFlushTLB)<<16,
			}
		},
		armed: func(w *world) { genBefore = w.mon.CapGeneration() },
	})
	if err != nil {
		return err
	}
	tag := c15Point(res, "capring", workers, iters, p)
	res.metric(tag+"_revocations", float64(p.after.Revocations-p.before.Revocations))
	res.metric(tag+"_generations", float64(p.w.mon.CapGeneration()-genBefore))
	// Refcount invariant: every scratch page is exclusive again.
	shared := 0
	for _, rc := range p.w.mon.RefCounts() {
		for _, dom := range p.doms {
			if scratch, _ := dom.SegmentRegion(".scratch"); rc.Region.Overlaps(scratch) && rc.Count != 1 {
				shared++
			}
		}
	}
	res.metric(tag+"_shared_scratch_runs", float64(shared))
	return nil
}

// c15Storm runs the transition storm: each worker loops a mediated call
// into a private service domain that returns immediately — 2*W*iters
// monitor-mediated transitions with zero capability mutations.
func c15Storm(cfg Config, res *Result, workers, iters int) error {
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
		return err
	}
	tag := c15Point(res, "storm", workers, iters, p)
	res.metric(tag+"_transitions", float64(p.after.Transitions-p.before.Transitions))
	return nil
}
