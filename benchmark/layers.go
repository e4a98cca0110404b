package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// pass is one workload run twice over one world: a reference phase
// without spans, then a traced phase. Their difference is what tracing
// costs.
type pass struct {
	w       world
	r       *run
	ref     *phase
	refRate float64   // the reference phase's quiet quarter: its rate
	refLat  []float64 // and its latency samples, sorted
	allLat  []float64 // every latency sample of the reference phase, sorted
	traced  *phase
	tr      *tracer
	st      *spanStats
}

const (
	// shortScale and shortSlices size the pass over a workload that is
	// not the run's own: enough calls into its layers for a median, a
	// fraction of a second in all.
	shortScale  = 2
	shortSlices = 4
	// The run's own workload spends these shares of -seconds untraced
	// and traced; the rest goes to the short passes and the probes.
	refShare    = 0.3
	tracedShare = 0.55
)

func runPass(wl workload, o options, own bool) (*pass, error) {
	scale, spans := o.scale*shortScale, 1<<17
	var refBudget, tracedBudget time.Duration
	if own {
		scale, spans = o.scale, maxSpans
		refBudget = time.Duration(refShare * o.seconds * float64(time.Second))
		tracedBudget = time.Duration(tracedShare * o.seconds * float64(time.Second))
	}
	p := &pass{r: &run{lat: make([]float64, 0, 1<<16), notes: map[string]float64{}}}
	var err error
	if p.w, _, err = setUp(wl, o.seed, scale, p.r, 1, 0); err != nil {
		return p, err
	}
	if err = warmUp(p.w, p.r); err != nil {
		return p, err
	}
	if p.ref, err = runPhase(p.w, p.r, refBudget, shortSlices); err != nil {
		return p, err
	}
	p.refRate, p.refLat = p.ref.quiet(p.r.lat)
	p.allLat = append([]float64(nil), p.r.lat...)
	sort.Float64s(p.allLat)
	if err = p.betweenPhases(); err != nil {
		return p, err
	}
	p.tr = newTracer(spans)
	p.r.tr = p.tr
	if p.traced, err = runPhase(p.w, p.r, tracedBudget, shortSlices); err != nil {
		return p, err
	}
	p.r.tr = nil
	p.st = p.tr.stats()
	return p, p.w.finish(p.r)
}

// betweenPhases takes the measurements that need an untraced world at
// rest: the real fleet.Migrate's blackouts, and fleet.Serve against the
// same requests issued directly.
func (p *pass) betweenPhases() error {
	switch w := p.w.(type) {
	case *migrateWorld:
		var blackout, hop float64
		bs := w.f.Blackouts()
		bs = bs[len(bs)-len(p.allLat):] // the warm-up's hops come first
		us := make([]float64, len(bs))
		for i, b := range bs {
			us[i] = float64(b) / 1e3
			blackout += us[i]
		}
		sort.Float64s(us)
		p.r.notes["fleet.blackout_p50_us"] = percentile(us, 50)
		p.r.notes["fleet.blackout_p99_us"] = percentile(us, 99)
		for _, l := range p.allLat {
			hop += l
		}
		p.r.notes["fleet.blackout_share"] = blackout / hop
	case *serveWorld:
		return w.againstDirect(p)
	}
	return nil
}

// againstDirect measures what the fleet adds to a request and what a second
// client buys: one-client Serve batches against the same tenant image
// called and run directly on one of its worker cores.
func (w *serveWorld) againstDirect(p *pass) error {
	const batches = 6
	r := &run{}
	t0 := time.Now()
	for i := 0; i < batches; i++ {
		if err := w.batch(r, 1); err != nil {
			return err
		}
	}
	oneClientUS := float64(time.Since(t0)) / 1e3 / (batches * serveBatch)

	n := w.f.Nodes[0]
	var direct *nodeWorld
	for _, pl := range w.f.LB().Placements(serveNames[0]) {
		if pl.Node == 0 {
			c := n.Workers()[0]
			direct = &nodeWorld{f: w.f, mon: n.Mon, cpu: n.Mach.Core(c), core: c, dom: pl.Dom, delta: pl.Delta}
		}
	}
	if direct == nil {
		return fmt.Errorf("no %s replica on node0", serveNames[0])
	}
	samples := make([]float64, 0, serveBatch)
	for i := 0; i < serveBatch; i++ {
		arg := uint32(w.rng.Intn(1 << 16))
		t0 := time.Now()
		if err := direct.request(r, arg); err != nil {
			return fmt.Errorf("direct request: %w", err)
		}
		samples = append(samples, float64(time.Since(t0))/1e3)
	}
	p.r.notes["fleet.overhead_us"] = oneClientUS - median(samples)
	p.r.notes["fleet.scaling_2c"] = p.refRate * oneClientUS / 1e6
	return nil
}

// perLayer is a traced run. The run's own workload gets a long pass;
// every other workload gets a short one, so that each layer's metrics
// are measured — where that layer is exercised — in every run.
func perLayer(wl workload, o options, m metrics) (int64, error) {
	var attempted int64
	for _, other := range workloads {
		own := other.name == wl.name
		p, err := runPass(other, o, own)
		attempted += p.r.ops
		if err != nil {
			return attempted, fmt.Errorf("%s pass: %w", other.name, err)
		}
		layerMetrics(other.name, p, m)
		if own {
			ownMetrics(p, m)
			path := filepath.Join(o.out, wl.name+".trace.json")
			if err := p.tr.writeChrome(path); err != nil {
				return attempted, err
			}
			logf("%s seed %d: traced %d ops, %d spans, trace in %s", wl.name, o.seed, p.traced.ops, len(p.tr.spans), path)
		}
	}
	return attempted, probes(o.seed, m)
}

// ownMetrics describes the run's own workload: its public counters per
// op over the traced phase's fixed-count prefix, and the split of the
// traced ops' wall time by layer.
func ownMetrics(p *pass, m metrics) {
	a, b := p.traced.before, p.traced.exact
	n := float64(p.traced.exactOps)
	per := func(x, y uint64) float64 { return float64(y-x) / n }
	m.set("hw.instr_per_op", per(a.instrs, b.instrs))
	m.set("hw.cycles_per_instr", ratio(b.coreCycles-a.coreCycles, b.instrs-a.instrs))
	m.set("hw.tlb_miss_ratio", ratio(b.tlbMisses-a.tlbMisses, b.tlbHits-a.tlbHits+b.tlbMisses-a.tlbMisses))
	m.set("hw.mru_hit_ratio", ratio(b.mruHits-a.mruHits, b.mruHits-a.mruHits+b.mruMisses-a.mruMisses))
	m.set("hw.tlb_flushes_per_op", per(a.tlbFlushes, b.tlbFlushes))
	sa, sb := a.stats, b.stats
	m.set("core.vmexits_per_op", per(sa.VMExits, sb.VMExits))
	m.set("core.transitions_per_op", per(sa.Transitions, sb.Transitions))
	hits, misses := sb.TransCacheHits-sa.TransCacheHits, sb.TransCacheMisses-sa.TransCacheMisses
	m.set("core.transcache_hit_ratio", ratio(hits, hits+misses))
	m.set("core.epoch_syncs_per_op", per(a.syncs, b.syncs))
	m.set("core.epoch_elided_ratio", ratio(b.elided-a.elided, b.syncs-a.syncs))
	m.set("core.denied_per_op", per(sa.DeniedOps, sb.DeniedOps))
	m.set("core.ring_shootdowns_per_op", per(sa.RingShootdowns, sb.RingShootdowns))
	m.set("core.ring_coalesced_per_flush", ratio(sb.RingOpsCoalesced-sa.RingOpsCoalesced, sb.RingFlushes-sa.RingFlushes))
	m.set("core.pages_scrubbed_per_op", per(sa.PagesScrubbed, sb.PagesScrubbed))
	m.set("trace.events_per_op", per(a.events, b.events))
	m.set("trace.dropped_per_op", per(a.dropped, b.dropped))
	m.set("rv.digests_per_kop", 1000*per(a.digests, b.digests))

	// Over the whole traced phase: host time.
	end := p.traced.after
	m.set("core.lock_wait_pct", 100*float64(end.lockWait-a.lockWait)/float64(p.traced.wall))
	var retries uint64
	if w, ok := p.w.(*serveWorld); ok {
		retries = w.retries
	}
	m.set("fleet.retries_per_op", float64(retries)/float64(p.r.ops))
	shares := p.st.layerShares()
	for _, l := range layers {
		m.set(l+".op_share_pct", shares[l])
	}
	m.set("bench.op_p99_us", percentile(p.allLat, 99))
	tracedRate, _ := p.traced.quiet(p.r.lat)
	m.set("bench.trace_overhead_pct", 100*(p.refRate/tracedRate-1))
	m.set("bench.slice_spread_pct", spreadPct(p.ref.rates))
}

// layerMetrics reads, from the pass over one workload, the host time of
// the layers that workload exercises.
func layerMetrics(name string, p *pass, m metrics) {
	st := p.st
	us := func(metric string, id spanID) { m.set(metric, st.medianUS(id)) }
	noted := func(names ...string) {
		for _, n := range names {
			m.set(n, p.r.notes[n])
		}
	}
	switch name {
	case "node_request":
		us("hw.run_us", spRunCore)
		us("core.call_us", spCall)
		us("rv.pulse_us", spPulse)
		m.set("hw.instr_ns", st.total[spRunCore]/float64(p.traced.after.instrs-p.traced.before.instrs))
	case "fleet_serve":
		m.set("fleet.serve_batch_ms", st.medianUS(spServe)/1e3)
		noted("fleet.overhead_us", "fleet.scaling_2c", "rv.audit_us")
	case "cap_sync":
		us("core.share_us", spShare)
		us("core.revoke_us", spRevoke)
		noted("libtyche.load_ms", "rv.finalize_us")
	case "cap_ring":
		us("libtyche.enqueue_us", spEnqueue)
		us("core.ring_flush_us", spRingFlush)
		us("libtyche.reap_us", spReap)
	case "migrate_hops":
		m.set("fleet.migrate_ms", percentile(p.refLat, 50)/1e3)
		noted("fleet.place_ms", "fleet.blackout_p50_us", "fleet.blackout_p99_us", "fleet.blackout_share", "fleet.snapshot_bytes")
		us("core.snapshot_us", spSnapshot)
		us("fleet.json_encode_us", spEncode)
		us("dist.connect_us", spConnect)
		us("dist.send_us", spSend)
		us("fleet.json_decode_us", spDecode)
		us("core.restore_us", spRestore)
		us("core.boot_quote_us", spBootQuote)
		us("attest.session_us", spSession)
		us("core.attest_us", spAttest)
		us("attest.verify_domain_us", spVerifyDomain)
		us("core.depart_kill_us", spDepartKill)
	}
}
