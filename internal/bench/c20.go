package bench

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/sched"
	"github.com/tyche-sim/tyche/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "C20",
		Title: "Batched ABI fast path: submission rings, coalesced shootdowns",
		Paper: "§3 every operation is mediated; mediation cost must not scale with operation count",
		Gates: append([]Gate{
			{"{arms}-complete", "{arms}_incomplete", eq(0), "every worker drains its loop and every operation is accounted for"},
			{"{sync}-shootdown-rounds", "{sync}_shootdown_rounds / {sync}_revocations", eq(1), "the trap path pays one shootdown round per revocation"},
			{"{batched}-shootdown-rounds", "{batched}_shootdown_rounds / {batched}_revoke_batches", eq(1), "a ring batch's revocations share one round"},
			{"{workers}-batched-5x", "{workers}_batch_speedup_cycles", ge(5), "§3: mediation cost must not scale with operation count"},
			{"{single}-p99-no-worse", "batched_{single}_p99_cycles / sync_{single}_p99_cycles", le(1), "batching does not buy throughput with tail latency"},
			{"{shared}-p99-no-worse", "batched_{shared}_p99_cycles / sync_{shared}_p99_cycles", le(2), "the same, allowing other cores' turns inside a span"},
			{"batch1-parity", "b1_batched_cycles_per_op / b1_sync_cycles_per_op", within(0.95, 1.05), "a batch of one costs what the trap costs"},
		}, traceGates...),
	}, runC20)
}

// c20K is the batch width: each workload iteration shares K pages to a
// sink domain and revokes all K delegations (TLB-flush cleanup, so
// every revocation owes a cross-core shootdown).
const c20K = 16

// runC20 measures the asynchronous batched ABI against the trap-per-op
// baseline on the same capability workload, in two phases:
//
//	storm    — W guest workers, one per core, each looping K=16
//	           share-to-sink + K revoke operations. The sync arm pays
//	           one VMCALL trap per operation and one TLB shootdown
//	           round per revocation (2K traps + K rounds per
//	           iteration); the batched arm enqueues descriptors with
//	           plain stores and pays two CallRingFlush traps per
//	           iteration, with the K revocation shootdowns coalesced
//	           into one cross-core round per batch.
//	batch-1  — a ring carrying exactly one descriptor per flush against
//	           the same operation done synchronously: batching is pure
//	           amortisation, so the degenerate batch must cost what the
//	           sync path costs (the opt-in is free when unused).
//
// Spans are measured on the aggregate cycle clock, so with multiple
// workers the other cores' turns that land inside a span count in it —
// in both arms, at points the run's fixed interleaving decides — hence
// the strict p99 gate at one worker and 2x headroom on shared points.
// Every configuration runs once, on a world the online invariant
// checker audits (C21 gates that tracing moves no simulated cycle): the
// same run supplies the cycles, the shootdown-round counts and the
// per-op spans (KOpBegin/KOpEnd bracket each capability operation).
func runC20(cfg Config, res *Result) error {
	res.Columns = []string{"arm", "workers", "cycles", "ops", "cyc/op", "traps", "shootdowns", "p99 cyc"}

	sweep := []int{1, 2, 4}
	iters := 8
	if cfg.Quick {
		sweep = []int{1, 2}
		iters = 4
	}
	for _, workers := range sweep {
		var perOp [2]float64 // [sync, batched] cycles per op
		for ai, arm := range []string{"sync", "batched"} {
			var err error
			if perOp[ai], err = runC20Storm(cfg, res, arm, workers, iters); err != nil {
				return fmt.Errorf("c20 %s_w%d: %w", arm, workers, err)
			}
		}
		w := fmt.Sprintf("w%d", workers)
		res.sweep("workers", w)
		res.sweep(map[bool]string{true: "single", false: "shared"}[workers == 1], w)
		res.metric(w+"_batch_speedup_cycles", perOp[0]/perOp[1])
	}
	return runC20BatchOfOne(cfg, res)
}

// runC20Storm runs `workers` guest domains (one per core, dom0 idling
// on core 0), each owning a K-page shareable region plus — in the
// batched arm — a K-entry submission ring, to completion. Every worker
// executes `iters` iterations of: share its K pages to its sink with
// TLB-flush cleanup, then revoke all K delegations. It reports the run
// as arm_w<workers> and returns its cycles per operation.
func runC20Storm(cfg Config, res *Result, arm string, workers, iters int) (float64, error) {
	batched := arm == "batched"
	spans := newOpSpans()
	pgs := uint64(phys.PageSize)
	rightsWord := uint32(cap.MemRW) | uint32(cap.CleanFlushTLB)<<16
	ringPages := (core.RingBytes(c20K) + pgs - 1) / pgs

	sinks := make([]core.DomainID, workers)
	nodes := make([]cap.NodeID, workers)
	var sdBefore uint64
	p, err := runPinned(cfg, pinnedSpec{
		name: "w", workers: workers, budget: 1_000_000,
		worker: func(w *world, i int) (pinnedWorker, error) {
			// Delegations resynchronise both endpoints' address-translation
			// state, a cost proportional to the pages they own. Sharing into
			// a minimal sink domain (instead of page-rich dom0) keeps that
			// resync term small and identical across arms, so the A/B
			// isolates what batching actually changes: traps and shootdowns.
			sink, err := w.cl.Load(haltImage(fmt.Sprintf("sink%d", i)), loadOn())
			if err != nil {
				return pinnedWorker{}, err
			}
			sinks[i] = sink.ID()
			// Allocate the worker's regions first so their addresses are
			// assembly-time constants for the generated program.
			shareRg, err := w.cl.Alloc(c20K)
			if err != nil {
				return pinnedWorker{}, err
			}
			ringRg, err := w.cl.Alloc(ringPages)
			if err != nil {
				return pinnedWorker{}, err
			}
			gen := func(phys.Addr) *hw.Asm { return c20SyncProg(shareRg.Start, rightsWord) }
			if batched {
				gen = func(phys.Addr) *hw.Asm { return c20BatchedProg(ringRg.Start, shareRg.Start, rightsWord) }
			}
			grants := func(dom *libtyche.Domain) error {
				// The shareable region transfers to the worker with
				// delegation rights: the worker re-shares it from guest code.
				// The ring footprint only needs to be guest-readable/writable.
				node, err := w.mon.Grant(core.InitialDomain, w.cl.HeapNode(), dom.ID(),
					cap.MemResource(shareRg), cap.MemRW|cap.RightShare, cap.CleanNone)
				if err != nil {
					return err
				}
				nodes[i] = node
				_, err = w.mon.Grant(core.InitialDomain, w.cl.HeapNode(), dom.ID(),
					cap.MemResource(ringRg), cap.MemRW, cap.CleanNone)
				return err
			}
			return pinnedWorker{gen: gen, grants: grants}, nil
		},
		regs: func(i int, _ []*libtyche.Domain) [hw.NumRegs]uint64 {
			return [hw.NumRegs]uint64{6: uint64(nodes[i]), 7: uint64(sinks[i]), 10: uint64(iters)}
		},
		armed: func(w *world) {
			// Attach after setup so the span population is exactly the
			// measured window's operations.
			w.mach.Tracer().Attach(spans)
			sdBefore = w.ck.Counts().Shootdowns
		},
	})
	if err != nil {
		return 0, err
	}
	ops := uint64(workers * iters * 2 * c20K)
	st, statsBefore := p.after, p.before
	// Exact operation accounting — none lost, none duplicated, and the
	// ring counters move only when the ring path ran.
	wantRevokes := uint64(workers * iters * c20K)
	if got := st.Revocations - statsBefore.Revocations; got != wantRevokes {
		p.fail("revocations %d, want %d", got, wantRevokes)
	}
	flushes := st.RingFlushes - statsBefore.RingFlushes
	ringOps := st.RingOps - statsBefore.RingOps
	coalesced := st.RingOpsCoalesced - statsBefore.RingOpsCoalesced
	rounds := st.RingShootdowns - statsBefore.RingShootdowns
	if batched {
		if flushes != uint64(workers*iters*2) || ringOps != ops ||
			rounds != uint64(workers*iters) || coalesced != wantRevokes {
			p.fail("ring flushes=%d ops=%d rounds=%d coalesced=%d, want %d/%d/%d/%d",
				flushes, ringOps, rounds, coalesced, workers*iters*2, ops, workers*iters, wantRevokes)
		}
	} else if flushes != 0 || ringOps != 0 {
		p.fail("sync arm moved ring counters: flushes=%d ops=%d", flushes, ringOps)
	}

	tag := fmt.Sprintf("%s_w%d", arm, workers)
	res.sweep("arms", tag)
	res.sweep(arm, tag)
	res.incomplete(tag, p.unmet)
	if batched {
		res.metric(tag+"_revoke_batches", float64(workers*iters))
	} else {
		res.metric(tag+"_revocations", float64(st.Revocations-statsBefore.Revocations))
	}
	sd := p.w.ck.Counts().Shootdowns - sdBefore
	p.w.audit(res, tag)
	perOp, traps, p99c := float64(p.cycles)/float64(ops), st.VMExits-statsBefore.VMExits, spans.p99()
	res.row(arm, fmt.Sprintf("%d", workers), fmtU(p.cycles), fmtU(ops),
		fmt.Sprintf("%.0f", perOp), fmtU(traps), fmtU(sd), fmtU(p99c))
	res.metric(tag+"_cycles", float64(p.cycles))
	res.metric(tag+"_ops", float64(ops))
	res.metric(tag+"_cycles_per_op", perOp)
	res.metric(tag+"_traps", float64(traps))
	res.metric(tag+"_shootdown_rounds", float64(sd))
	res.metric(tag+"_p99_cycles", float64(p99c))
	return perOp, nil
}

// c20SyncProg is the trap-per-op worker: K times per iteration, a
// CallShare VMCALL immediately followed by a CallRevoke VMCALL of the
// node the share minted (left in r1 by the ABI).
//
// Registers: r6 = shareable-region capability node and r7 = sink
// domain ID (both set at launch), r10 = iteration count, r12 =
// constant 1, r15 = failure marker.
func c20SyncProg(shareBase phys.Addr, rightsWord uint32) *hw.Asm {
	a := hw.NewAsm()
	a.Movi(12, 1)
	a.Label("outer")
	for k := uint64(0); k < c20K; k++ {
		a.Mov(1, 6)
		a.Mov(2, 7)
		a.Movi(3, uint32(shareBase)+uint32(k*phys.PageSize))
		a.Movi(4, uint32(phys.PageSize))
		a.Movi(5, rightsWord)
		a.Movi(0, uint32(core.CallShare))
		a.Vmcall()
		a.Jnz(0, "fail")
		// r1 now holds the minted node: revoke it straight back.
		a.Movi(0, uint32(core.CallRevoke))
		a.Vmcall()
		a.Jnz(0, "fail")
	}
	endPinnedLoop(a, "outer")
	return a
}

// c20BatchedProg is the ring worker: per iteration it writes K share
// descriptors with plain stores, publishes the tail, flushes (trap 1),
// then reads each completion back, rewrites the slots as revoke
// descriptors of the minted nodes, and flushes again (trap 2). The ring
// holds exactly K entries and every batch is exactly K descriptors, so
// descriptor i of every batch lands on slot i — all offsets are
// assembly-time immediates.
//
// Registers: r6 = share node, r7 = sink domain ID, r10 = iterations,
// r11 = running submission tail, r12 = constant 1, r13 = ring base,
// r15 = failure marker.
func c20BatchedProg(ringBase, shareBase phys.Addr, rightsWord uint32) *hw.Asm {
	a := hw.NewAsm()
	a.Movi(1, uint32(ringBase))
	a.Movi(2, c20K)
	a.Movi(0, uint32(core.CallRingSetup))
	a.Vmcall()
	a.Jnz(0, "fail")
	a.Movi(13, uint32(ringBase))
	a.Movi(12, 1)
	a.Movi(11, 0)
	a.Label("outer")
	for k := uint64(0); k < c20K; k++ {
		off := uint32(core.RingSQOff(c20K, k))
		a.Movi(1, uint32(core.CallShare))
		a.St(13, off, 1)
		a.St(13, off+8, 6)
		a.St(13, off+16, 7)
		a.Movi(1, uint32(shareBase)+uint32(k*phys.PageSize))
		a.St(13, off+24, 1)
		a.Movi(1, uint32(phys.PageSize))
		a.St(13, off+32, 1)
		a.Movi(1, rightsWord)
		a.St(13, off+40, 1)
	}
	a.Addi(11, 11, c20K)
	a.St(13, uint32(core.RingOffSQTail), 11)
	a.Movi(0, uint32(core.CallRingFlush))
	a.Vmcall()
	a.Jnz(0, "fail")
	for k := uint64(0); k < c20K; k++ {
		cq := uint32(core.RingCQOff(c20K, k))
		off := uint32(core.RingSQOff(c20K, k))
		a.Ld(1, 13, cq) // share completion status must be OK
		a.Jnz(1, "fail")
		a.Ld(2, 13, cq+8) // minted node
		a.Movi(1, uint32(core.CallRevoke))
		a.St(13, off, 1)
		a.St(13, off+8, 2)
	}
	a.Addi(11, 11, c20K)
	a.St(13, uint32(core.RingOffSQTail), 11)
	a.Movi(0, uint32(core.CallRingFlush))
	a.Vmcall()
	a.Jnz(0, "fail")
	endPinnedLoop(a, "outer")
	return a
}

// runC20BatchOfOne measures the degenerate batch: one descriptor per
// flush against the identical synchronous operation. The ring's whole
// benefit is amortisation, so a batch of one must cost what the sync
// path costs — within 5%, per the acceptance gate.
func runC20BatchOfOne(cfg Config, res *Result) error {
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return err
	}
	peer, err := w.cl.Load(haltImage("b1-peer"), loadOn())
	if err != nil {
		return err
	}
	rg, err := w.cl.Alloc(1)
	if err != nil {
		return err
	}
	const M = 16
	share := func() (cap.NodeID, error) {
		return w.mon.Share(core.InitialDomain, w.cl.HeapNode(), peer.ID(),
			cap.MemResource(rg), cap.MemRW, cap.CleanFlushTLB)
	}
	var syncTotal, batchTotal uint64
	for i := 0; i < M; i++ {
		node, err := share()
		if err != nil {
			return err
		}
		c, err := cycles(w.mach, func() error { return w.mon.Revoke(core.InitialDomain, node) })
		if err != nil {
			return err
		}
		syncTotal += c
	}
	ring, err := w.cl.NewRing(1)
	if err != nil {
		return err
	}
	for i := 0; i < M; i++ {
		node, err := share()
		if err != nil {
			return err
		}
		c, err := cycles(w.mach, func() error {
			if err := ring.Enqueue(core.CallRevoke, uint64(node)); err != nil {
				return err
			}
			n, err := ring.Flush()
			if err == nil && n != 1 {
				return fmt.Errorf("batch-of-1 flush drained %d descriptors", n)
			}
			return err
		})
		if err != nil {
			return err
		}
		batchTotal += c
	}
	s := float64(syncTotal) / M
	b := float64(batchTotal) / M
	res.row("batch-1", "-", "-", "-", fmt.Sprintf("%d+%d", M, M),
		fmt.Sprintf("%.0f vs %.0f", b, s), "-", "-", "-")
	res.metric("b1_sync_cycles_per_op", s)
	res.metric("b1_batched_cycles_per_op", b)
	return nil
}

// opSpans is a trace sink collecting the cycle span of every capability
// operation (KOpBegin..KOpEnd, matched by token). Frames carry unique
// tokens so a token map suffices.
type opSpans struct {
	open  map[uint64]uint64
	spans []uint64
}

func newOpSpans() *opSpans { return &opSpans{open: make(map[uint64]uint64)} }

func (s *opSpans) Event(ev trace.Event) {
	switch ev.Kind {
	case trace.KOpBegin:
		s.open[ev.Node] = ev.Cycle
	case trace.KOpEnd:
		if b, ok := s.open[ev.Node]; ok {
			delete(s.open, ev.Node)
			s.spans = append(s.spans, ev.Cycle-b)
		}
	}
}

// p99 returns the 99th-percentile span (0 when nothing was observed).
func (s *opSpans) p99() uint64 {
	return sched.Percentile(s.spans, 99)
}
