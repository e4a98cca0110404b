package bench

import (
	"fmt"
	"time"

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
// ops), and the capability generation advanced monotonically. The sweep
// over W shows guest execution parallelising while monitor entries
// serialise.
func runC15(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C15", Title: "SMP capability contention",
		Columns: []string{"workers", "iters/worker", "wall us", "cycles", "vmexits", "revokes", "cycles/op"},
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
// the contention kernel shared by C15 (invariant checks under load)
// and C17 (tracing overhead on the identical workload).
type ringRun struct {
	w         *world
	wall      time.Duration
	cycles    uint64 // simulated cycles consumed by the concurrent phase
	vmexits   uint64
	revokes   uint64
	genBefore uint64
	genAfter  uint64
	ops       uint64 // share+revoke pairs issued
	complete  bool   // every worker halted cleanly with its loop drained
	detail    string // failure detail when a check below goes red
	scratches []phys.Region
	// lockWait/lockAcqs are the revocation-mutex acquisition totals over the
	// concurrent phase only (C18 turns them into a contention share).
	lockWait time.Duration
	lockAcqs uint64
}

// runShareRevokeRing boots a world with one worker domain per core and
// drives the C15 guest loop concurrently to completion. tweak, when
// non-nil, runs right after world construction — C17 uses it to
// install tracers of different configurations on an otherwise
// identical workload.
func runShareRevokeRing(cfg Config, workers, iters int, tweak func(*world) error) (*ringRun, error) {
	opts := defaultWorldOpts()
	opts.cores = workers + 1 // dom0 idles on core 0
	w, err := newWorld(cfg, opts)
	if err != nil {
		return nil, err
	}
	if tweak != nil {
		if err := tweak(w); err != nil {
			return nil, err
		}
	}
	// Identical worker images: share-scratch-then-revoke in a loop. All
	// configuration arrives in registers, poked after Launch (which
	// zeroes them) exactly like libtyche's Invoke argument passing.
	prog := func(base phys.Addr) *hw.Asm {
		a := hw.NewAsm()
		a.Movi(12, 1)
		a.Label("loop")
		a.Mov(1, 6)  // scratch capability node
		a.Mov(2, 7)  // destination domain
		a.Mov(3, 8)  // scratch start
		a.Mov(4, 9)  // scratch size
		a.Mov(5, 11) // rights | cleanup<<16
		a.Movi(0, uint32(core.CallShare))
		a.Vmcall()
		a.Jnz(0, "fail")
		// r1 now holds the derived node; revoke it straight away.
		a.Movi(0, uint32(core.CallRevoke))
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
	type worker struct {
		dom     *libtyche.Domain
		core    phys.CoreID
		scratch phys.Region
		node    cap.NodeID
	}
	var ws []*worker
	for i := 0; i < workers; i++ {
		img, err := buildAt(w.cl, fmt.Sprintf("worker%d", i), prog,
			func(img *image.Image) { img.WithBSS(".scratch", phys.PageSize) })
		if err != nil {
			return nil, err
		}
		coreID := phys.CoreID(i + 1)
		lo := libtyche.DefaultLoadOptions()
		lo.Cores = []phys.CoreID{coreID}
		lo.Seal = false // workers receive shares while running
		dom, err := w.cl.Load(img, lo)
		if err != nil {
			return nil, err
		}
		scratch, ok := dom.SegmentRegion(".scratch")
		if !ok {
			return nil, fmt.Errorf("c15: worker %d has no scratch segment", i)
		}
		node, ok := dom.SegmentNode(".scratch")
		if !ok {
			return nil, fmt.Errorf("c15: worker %d has no scratch node", i)
		}
		ws = append(ws, &worker{dom: dom, core: coreID, scratch: scratch, node: node})
	}
	r := &ringRun{w: w, ops: uint64(workers * iters), genBefore: w.mon.CapGeneration()}
	statsBefore := w.mon.Stats()
	cyclesBefore := w.mach.Clock.Cycles()
	var cores []phys.CoreID
	for i, wk := range ws {
		if err := wk.dom.Launch(wk.core); err != nil {
			return nil, err
		}
		// Boot arguments, poked into the zeroed register file before the
		// core starts running.
		dst := core.InitialDomain
		if workers > 1 {
			dst = ws[(i+1)%workers].dom.ID()
		}
		c := w.mach.Core(wk.core)
		c.Regs[6] = uint64(wk.node)
		c.Regs[7] = uint64(dst)
		c.Regs[8] = uint64(wk.scratch.Start)
		c.Regs[9] = wk.scratch.Size()
		c.Regs[10] = uint64(iters)
		c.Regs[11] = uint64(cap.MemRW) | uint64(cap.CleanFlushTLB)<<16
		cores = append(cores, wk.core)
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
	r.genAfter = w.mon.CapGeneration()
	r.vmexits = statsAfter.VMExits - statsBefore.VMExits
	r.revokes = statsAfter.Revocations - statsBefore.Revocations

	r.complete = true
	for _, wk := range ws {
		r.scratches = append(r.scratches, wk.scratch)
		run, ok := runs[wk.core]
		c := w.mach.Core(wk.core)
		if !ok || run.Trap.Kind != hw.TrapHalt || c.Regs[10] != 0 || c.Regs[15] == 0xdead {
			r.complete = false
			r.detail = fmt.Sprintf("core %v: trap=%v r10=%d r15=%#x", wk.core, run.Trap, c.Regs[10], c.Regs[15])
		}
	}
	return r, nil
}

func c15Round(cfg Config, res *Result, workers, iters int) error {
	r, err := runShareRevokeRing(cfg, workers, iters, nil)
	if err != nil {
		return err
	}
	tag := fmt.Sprintf("w%d", workers)
	res.row(fmt.Sprintf("%d", workers), fmt.Sprintf("%d", iters),
		fmt.Sprintf("%d", r.wall.Microseconds()), fmtU(r.cycles),
		fmtU(r.vmexits), fmtU(r.revokes), fmtU(r.cycles/(2*r.ops)))
	res.metric(tag+"_wall_ns", float64(r.wall.Nanoseconds()))
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
		for _, scratch := range r.scratches {
			if rc.Region.Overlaps(scratch) && rc.Count != 1 {
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
