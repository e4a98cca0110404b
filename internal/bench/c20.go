package bench

import (
	"fmt"
	"sort"
	"sync"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "C20",
		Title: "Batched ABI fast path: submission rings, coalesced shootdowns",
		Paper: "§3 every operation is mediated; mediation cost must not scale with operation count",
		Run:   runC20,
	})
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
// Gates (the tentpole's acceptance criteria): batched per-op cost >= 5x
// cheaper than sync on the storm, batched p99 per-op service span no
// worse than sync (throughput not bought with tail latency), exactly
// one shootdown round per revocation batch from trace counts, and the
// batch-of-1 within 5% of sync.
//
// Every configuration runs once, with the cycle-stamped tracer and
// online invariant checker attached (C21 gates that tracing moves no
// simulated cycle): the same run supplies the
// cycles, the shootdown-round counts and the per-op spans the p99 gate
// reads (KOpBegin/KOpEnd bracket each capability operation).
func runC20(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C20", Title: "Batched ABI throughput (ring storm / batch-of-1)",
		Columns: []string{"arm", "workers", "cycles", "ops", "cyc/op", "traps", "shootdowns", "p99 cyc"},
	}

	sweep := []int{1, 2, 4}
	iters := 8
	if cfg.Quick {
		sweep = []int{1, 2}
		iters = 4
	}
	cfg.Trace = true

	for _, workers := range sweep {
		var perOp [2]float64 // [sync, batched] cycles per op
		for ai, arm := range []string{"sync", "batched"} {
			batched := arm == "batched"
			tag := fmt.Sprintf("%s_w%d", arm, workers)
			spans := newOpSpans()
			p, err := runC20Storm(cfg, workers, iters, batched, spans)
			if err != nil {
				return nil, fmt.Errorf("c20 %s: %w", tag, err)
			}
			perOp[ai] = float64(p.cycles) / float64(p.ops)
			res.check(tag+"-complete", p.complete,
				"all %d workers drained %d iterations of %d ops%s", workers, iters, 2*c20K, p.detail)

			// The full-history audit, plus the shootdown-round and p99
			// evidence.
			p.w.traceClean(res, tag)
			sd, p99c := p.shootdowns, spans.p99()
			wantSD := uint64(workers * iters)
			if !batched {
				wantSD = uint64(workers * iters * c20K)
			}
			res.check(tag+"-shootdown-rounds", sd == wantSD,
				"traced cross-core shootdown rounds: %d, want %d (%s)", sd, wantSD,
				map[bool]string{true: "one per revocation batch", false: "one per revocation"}[batched])
			res.row(arm, fmt.Sprintf("%d", workers), fmtU(p.cycles), fmtU(p.ops),
				fmt.Sprintf("%.0f", perOp[ai]), fmtU(p.traps), fmtU(sd), fmtU(p99c))
			res.metric(tag+"_cycles", float64(p.cycles))
			res.metric(tag+"_ops", float64(p.ops))
			res.metric(tag+"_cycles_per_op", perOp[ai])
			res.metric(tag+"_traps", float64(p.traps))
			res.metric(tag+"_shootdown_rounds", float64(sd))
			res.metric(tag+"_p99_cycles", float64(p99c))
		}
		speedup := perOp[0] / perOp[1]
		res.metric(fmt.Sprintf("w%d_batch_speedup_cycles", workers), speedup)
		res.check(fmt.Sprintf("w%d-batched-5x", workers), speedup >= 5,
			"batched per-op cost %.0f cyc vs sync %.0f cyc: %.1fx (gate: >= 5x)",
			perOp[1], perOp[0], speedup)
	}
	// The p99 half of the throughput gate: the batched arm's per-op
	// service span must not regress past the sync arm's. Spans are
	// measured on the aggregate cycle clock, so with multiple workers
	// the other cores' turns that land inside a span count in it — in
	// both arms, at points the run's fixed interleaving decides — so the
	// single-worker point carries the strict gate and wider points get
	// 2x headroom for that cross-core share.
	for _, workers := range sweep {
		s := res.Metrics[fmt.Sprintf("sync_w%d_p99_cycles", workers)]
		b := res.Metrics[fmt.Sprintf("batched_w%d_p99_cycles", workers)]
		slack := 1.0
		if workers > 1 {
			slack = 2.0
		}
		res.check(fmt.Sprintf("w%d-p99-no-worse", workers), b <= s*slack && s > 0,
			"per-op span p99: batched %.0f cyc vs sync %.0f cyc (tolerance %.0fx)", b, s, slack)
	}

	if err := runC20BatchOfOne(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// c20Run is one execution of the share/revoke storm.
type c20Run struct {
	*pinnedRun
	ops        uint64 // shares + revokes executed
	traps      uint64 // VMExits taken during the run
	shootdowns uint64 // cross-core rounds (traced runs)
}

// runC20Storm runs `workers` guest domains (one per core, dom0 idling
// on core 0), each owning a K-page shareable region plus — in the
// batched arm — a K-entry submission ring, to completion. Every worker
// executes `iters` iterations of: share its K pages to its sink with
// TLB-flush cleanup, then revoke all K delegations.
func runC20Storm(cfg Config, workers, iters int, batched bool, spans *opSpans) (*c20Run, error) {
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
			if w.ck == nil {
				return
			}
			// Attach after setup so the span population is exactly the
			// measured window's operations.
			w.mach.Tracer().Attach(spans)
			sdBefore = w.ck.Counts().Shootdowns
		},
	})
	if err != nil {
		return nil, err
	}
	r := &c20Run{pinnedRun: p, ops: uint64(workers * iters * 2 * c20K)}
	st, statsBefore := p.after, p.before
	r.traps = st.VMExits - statsBefore.VMExits
	if p.w.ck != nil {
		r.shootdowns = p.w.ck.Counts().Shootdowns - sdBefore
	}
	// Exact operation accounting — none lost, none duplicated, and the
	// ring counters move only when the ring path ran.
	wantRevokes := uint64(workers * iters * c20K)
	if got := st.Revocations - statsBefore.Revocations; got != wantRevokes {
		r.fail("revocations %d, want %d", got, wantRevokes)
	}
	flushes := st.RingFlushes - statsBefore.RingFlushes
	ringOps := st.RingOps - statsBefore.RingOps
	coalesced := st.RingOpsCoalesced - statsBefore.RingOpsCoalesced
	rounds := st.RingShootdowns - statsBefore.RingShootdowns
	if batched {
		if flushes != uint64(workers*iters*2) || ringOps != r.ops ||
			rounds != uint64(workers*iters) || coalesced != wantRevokes {
			r.fail("ring flushes=%d ops=%d rounds=%d coalesced=%d, want %d/%d/%d/%d",
				flushes, ringOps, rounds, coalesced, workers*iters*2, r.ops, workers*iters, wantRevokes)
		}
	} else if flushes != 0 || ringOps != 0 {
		r.fail("sync arm moved ring counters: flushes=%d ops=%d", flushes, ringOps)
	}
	return r, nil
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
	dev := (b - s) / s
	if dev < 0 {
		dev = -dev
	}
	res.row("batch-1", "-", "-", "-", fmt.Sprintf("%d+%d", M, M),
		fmt.Sprintf("%.0f vs %.0f", b, s), "-", "-", "-")
	res.metric("b1_sync_cycles_per_op", s)
	res.metric("b1_batched_cycles_per_op", b)
	res.check("batch1-parity", dev <= 0.05,
		"batch-of-1 revocation %.0f cyc vs sync %.0f cyc: %.1f%% apart (gate: <= 5%%)", b, s, dev*100)
	return nil
}

// opSpans is a trace sink collecting the cycle span of every capability
// operation (KOpBegin..KOpEnd, matched by token). Frames carry unique
// tokens so a token map suffices; the tracer already serialises sink
// delivery but the mutex keeps the final read safe.
type opSpans struct {
	mu    sync.Mutex
	open  map[uint64]uint64
	spans []uint64
}

func newOpSpans() *opSpans { return &opSpans{open: make(map[uint64]uint64)} }

func (s *opSpans) Event(ev trace.Event) {
	switch ev.Kind {
	case trace.KOpBegin:
		s.mu.Lock()
		s.open[ev.Node] = ev.Cycle
		s.mu.Unlock()
	case trace.KOpEnd:
		s.mu.Lock()
		if b, ok := s.open[ev.Node]; ok {
			delete(s.open, ev.Node)
			s.spans = append(s.spans, ev.Cycle-b)
		}
		s.mu.Unlock()
	}
}

// p99 returns the 99th-percentile span (0 when nothing was observed).
func (s *opSpans) p99() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.spans) == 0 {
		return 0
	}
	sorted := append([]uint64(nil), s.spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted)*99 + 99) / 100
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}
