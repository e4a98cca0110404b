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
		Title: "SMP contention: concurrent capability ops and transitions stay exact over 1-8 cores",
		Paper: "§3.2 exact system-wide reference counts; §3 the monitor mediates every operation, at every width",
		Run:   runC15,
	})
}

// runC15 is the multi-core contention experiment. W worker domains, one
// per core, run *concurrently* (Monitor.RunCores, a goroutine per core)
// under two workloads at opposite ends of the monitor's entry
// discipline:
//
//	capring — each worker shares its private scratch page to the next
//	          worker in the ring and immediately revokes the share: a
//	          delegation from a pinned reader entry, then an epoch-based
//	          detach under the revocation mutex — the heaviest mutation
//	          mix the monitor serves;
//	storm   — each worker loops a mediated call+return into a private
//	          service domain: the pure read path, where every entry pins
//	          an epoch, takes no top-level lock and never waits on
//	          another core.
//
// Each sweep point runs once, with the cycle-stamped tracer and online
// invariant checker attached from boot (C21 gates that observing moves
// no simulated cycle). Gated at every width: every worker drains its
// loop; the capring leaves every scratch page at refcount 1, counts
// exactly one revocation per iteration, advances the capability
// generation and takes the revocation mutex exactly once per
// revocation; the storm counts exactly two transitions per iteration
// and takes the mutex zero times; and the full history audits clean.
// Wall-clock scaling with host threads is not claimed; the host-time
// cost of the lock is core.lock_wait_pct in benchmark/.
func runC15(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C15", Title: "SMP contention (capring / transition storm)",
		Columns: []string{"workload", "workers", "ops", "cycles", "cyc/op", "vmexits", "lock acqs"},
	}
	sweep, iters := []int{1, 2, 4, 8}, 48
	if cfg.Quick {
		sweep, iters = []int{1, 4}, 16
	}
	cfg.Trace = true
	for _, workers := range sweep {
		if err := c15Capring(cfg, res, workers, iters); err != nil {
			return nil, fmt.Errorf("c15 capring_w%d: %w", workers, err)
		}
	}
	for _, workers := range sweep {
		if err := c15Storm(cfg, res, workers, iters); err != nil {
			return nil, fmt.Errorf("c15 storm_w%d: %w", workers, err)
		}
	}
	return res, nil
}

// c15Point reports one sweep point and gates what both workloads share:
// every worker drained, and exactly wantAcqs revocation-mutex
// acquisitions. It returns the point's tag, op pairs issued and VM exits.
func c15Point(res *Result, key string, workers, iters int, p *pinnedRun, wantAcqs uint64) (string, uint64, uint64) {
	tag := fmt.Sprintf("%s_w%d", key, workers)
	ops := uint64(workers * iters)
	vmexits := p.after.VMExits - p.before.VMExits
	res.row(key, fmt.Sprintf("%d", workers), fmtU(ops), fmtU(p.cycles), fmtU(p.cycles/ops),
		fmtU(vmexits), fmtU(p.lockAcqs))
	res.metric(tag+"_cycles", float64(p.cycles))
	res.metric(tag+"_ops", float64(ops))
	res.metric(tag+"_vmexits", float64(vmexits))
	res.metric(tag+"_lock_acquisitions", float64(p.lockAcqs))
	res.check(tag+"-complete", p.complete,
		"all %d workers drained %d op pairs%s", workers, iters, p.detail)
	res.check(tag+"-lock-exact", p.lockAcqs == wantAcqs,
		"%d revocation-mutex acquisitions, want exactly %d", p.lockAcqs, wantAcqs)
	return tag, ops, vmexits
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
	revokes := p.after.Revocations - p.before.Revocations
	tag, ops, vmexits := c15Point(res, "capring", workers, iters, p, revokes)

	// Refcount invariant: every scratch page is exclusive again.
	exclusive := true
	detail := ""
	for _, rc := range p.w.mon.RefCounts() {
		for _, dom := range p.doms {
			if scratch, _ := dom.SegmentRegion(".scratch"); rc.Region.Overlaps(scratch) && rc.Count != 1 {
				exclusive = false
				detail = fmt.Sprintf(" (%v refcount %d)", rc.Region, rc.Count)
			}
		}
	}
	res.check(tag+"-refcounts-restored", exclusive,
		"every scratch page back to refcount 1 after %d concurrent revocations%s", revokes, detail)
	// Op accounting: exactly one revocation per loop iteration — none
	// lost, none duplicated.
	res.check(tag+"-ops-exact", revokes == ops && vmexits >= 2*ops,
		"%d revocations for %d issued (vmexits %d >= %d)", revokes, ops, vmexits, 2*ops)
	genAfter := p.w.mon.CapGeneration()
	res.check(tag+"-generation-advances", genAfter > genBefore,
		"capability generation %d -> %d", genBefore, genAfter)
	p.w.traceClean(res, tag)
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
	tag, ops, vmexits := c15Point(res, "storm", workers, iters, p, 0)
	// A call+return pair per iteration — none lost, none duplicated.
	trans := p.after.Transitions - p.before.Transitions
	res.check(tag+"-ops-exact", trans == 2*ops && vmexits >= 2*ops,
		"%d transitions for %d call+return pairs (vmexits %d >= %d)", trans, ops, vmexits, 2*ops)
	p.w.traceClean(res, tag)
	return nil
}
