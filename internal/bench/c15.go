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
		Title: "SMP contention: concurrent guest capability ops preserve refcount invariants",
		Paper: "§3.2 exact system-wide reference counts; monitor entry serialisation under multi-core execution",
		Run:   runC15,
	})
}

// runC15 is the multi-core contention experiment: W worker domains, one
// per core, each running *concurrently* (Monitor.RunCores, a goroutine
// per core) a guest loop that shares its private scratch page to the
// next worker in the ring and immediately revokes the share — the
// heaviest possible hammering of the capability engine from inside
// domains. Afterwards every invariant the paper's verifiers rely on
// must still hold: every scratch page is exclusive again (refcount 1),
// the monitor counted exactly W*iters revocations (no lost or phantom
// ops), and the capability generation advanced monotonically.
func runC15(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C15", Title: "SMP capability contention",
		Columns: []string{"workers", "iters/worker", "cycles", "vmexits", "revokes", "cycles/op"},
	}
	sweep := []int{1, 2, 4}
	iters := 64
	if cfg.Quick {
		sweep = []int{1, 4}
		iters = 24
	}
	for _, workers := range sweep {
		if err := c15Round(cfg, res, workers, iters); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ringRun captures one execution of the share+revoke ring workload —
// the contention kernel shared by C15 (invariant checks under load),
// C17 (tracing on the identical workload) and C18 (entry scalability).
type ringRun struct {
	*pinnedRun
	vmexits   uint64
	revokes   uint64
	genBefore uint64
	genAfter  uint64
	ops       uint64 // share+revoke pairs issued
}

// ringProg is the worker image: share-scratch-then-revoke in a loop.
// All configuration arrives in registers: r6 = scratch capability node,
// r7 = destination domain, r8/r9 = scratch start/size, r10 = iteration
// count, r11 = rights | cleanup<<16.
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

// runShareRevokeRing drives the C15 guest loop on one worker per core:
// each worker shares its private scratch page to the next worker in
// the ring (dom0 when alone) and revokes the share, iters times. tweak,
// when non-nil, runs right after world construction — C17 uses it to
// install tracers of different configurations on an otherwise
// identical workload.
func runShareRevokeRing(cfg Config, workers, iters int, tweak func(*world) error) (*ringRun, error) {
	r := &ringRun{ops: uint64(workers * iters)}
	p, err := runPinned(cfg, pinnedSpec{
		name: "worker", workers: workers, budget: 100_000, tweak: tweak,
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
		armed: func(w *world) { r.genBefore = w.mon.CapGeneration() },
	})
	if err != nil {
		return nil, err
	}
	r.pinnedRun = p
	r.genAfter = p.w.mon.CapGeneration()
	r.vmexits = p.after.VMExits - p.before.VMExits
	r.revokes = p.after.Revocations - p.before.Revocations
	return r, nil
}

func c15Round(cfg Config, res *Result, workers, iters int) error {
	r, err := runShareRevokeRing(cfg, workers, iters, nil)
	if err != nil {
		return err
	}
	tag := fmt.Sprintf("w%d", workers)
	res.row(fmt.Sprintf("%d", workers), fmt.Sprintf("%d", iters), fmtU(r.cycles),
		fmtU(r.vmexits), fmtU(r.revokes), fmtU(r.cycles/(2*r.ops)))
	res.metric(tag+"_cycles", float64(r.cycles))
	res.metric(tag+"_vmexits", float64(r.vmexits))
	res.metric(tag+"_revocations", float64(r.revokes))

	// Every worker must have finished its whole loop cleanly.
	res.check(tag+"-workers-complete", r.complete,
		"all %d workers ran %d share+revoke pairs to completion%s", workers, iters, r.detail)

	// Refcount invariant: every scratch page is exclusive again.
	exclusive := true
	detail := ""
	for _, rc := range r.w.mon.RefCounts() {
		for _, dom := range r.doms {
			if scratch, _ := dom.SegmentRegion(".scratch"); rc.Region.Overlaps(scratch) && rc.Count != 1 {
				exclusive = false
				detail = fmt.Sprintf("%v refcount %d", rc.Region, rc.Count)
			}
		}
	}
	res.check(tag+"-refcounts-restored", exclusive,
		"every scratch page back to refcount 1 after %d concurrent revocations%s", r.revokes, detail)

	// Op accounting: the monitor must have seen exactly one revocation
	// per loop iteration — none lost, none duplicated — regardless of
	// how finely its locking is sliced.
	res.check(tag+"-ops-exact", r.revokes == r.ops && r.vmexits >= 2*r.ops,
		"%d revocations for %d issued (vmexits %d >= %d)", r.revokes, r.ops, r.vmexits, 2*r.ops)
	res.check(tag+"-generation-advances", r.genAfter > r.genBefore,
		"capability generation %d -> %d", r.genBefore, r.genAfter)
	// With -traced, the online checker audited every event of the run.
	r.w.traceClean(res, tag)
	return nil
}
