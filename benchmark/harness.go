package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"github.com/tyche-sim/tyche/internal/core"
)

// workload is one named set of inputs. The seed drives everything the
// program is given — request arguments, tenant deltas, page order,
// migration targets, fleet.Config.Seed — and nothing else does.
type workload struct {
	name  string
	setup func(seed int64, scale int, r *run) (world, error)
}

var workloads = []workload{
	{"node_request", newNodeWorld},
	{"fleet_serve", newServeWorld},
	{"cap_sync", newCapSyncWorld},
	{"cap_ring", newCapRingWorld},
	{"migrate_hops", newMigrateWorld},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// A run builds its world at least minSetups times and for at least
	// setupBudget; setup_s is the median, and the last world built is
	// the one measured. The cheapest world takes 6 ms to build, and only
	// the median of many such times is steady.
	minSetups   = 15
	setupBudget = 500 * time.Millisecond
	// exactSlices is the fixed-count prefix of every timed phase. The
	// metrics in the simulated and allocation currencies are taken over
	// it, so they do not depend on how many more slices the host had
	// time for and repeat exactly for a seed where the path is
	// deterministic.
	exactSlices = 32
)

// counters is the sum of a world's public counters: everything a layer
// already exposes, read from outside.
type counters struct {
	cycles     uint64 // all machine clocks
	coreCycles uint64 // the cores' shards of them: guest execution
	instrs     uint64
	tlbHits    uint64
	tlbMisses  uint64
	tlbFlushes uint64
	mruHits    uint64
	mruMisses  uint64
	stats      core.Stats
	syncs      uint64
	elided     uint64
	lockWait   time.Duration
	events     uint64
	dropped    uint64
	digests    uint64
}

func readCounters(w world) counters {
	var c counters
	for _, p := range w.parts() {
		c.cycles += p.mach.Clock.Cycles()
		for _, cpu := range p.mach.Cores {
			c.coreCycles += cpu.Cycles()
			c.instrs += cpu.InstrCount()
			h, m, f := cpu.TLBUnit().Stats()
			c.tlbHits, c.tlbMisses, c.tlbFlushes = c.tlbHits+h, c.tlbMisses+m, c.tlbFlushes+f
			h, m = cpu.MRUStats()
			c.mruHits, c.mruMisses = c.mruHits+h, c.mruMisses+m
		}
		s := p.mon.Stats()
		c.stats.VMExits += s.VMExits
		c.stats.Transitions += s.Transitions
		c.stats.DeniedOps += s.DeniedOps
		c.stats.PagesScrubbed += s.PagesScrubbed
		c.stats.RingFlushes += s.RingFlushes
		c.stats.RingShootdowns += s.RingShootdowns
		c.stats.RingOpsCoalesced += s.RingOpsCoalesced
		c.stats.TransCacheHits += s.TransCacheHits
		c.stats.TransCacheMisses += s.TransCacheMisses
		e := p.mon.EpochStats()
		c.syncs += e.Syncs
		c.elided += e.ElidedSyncs
		d, _ := p.mon.LockWait()
		c.lockWait += d
		if p.svc != nil {
			c.events += p.svc.Tracer().Len()
			c.dropped += p.svc.Tracer().Dropped()
			c.digests += p.svc.Shipped()
		}
	}
	return c
}

// phase is what one timed phase of slices measured.
type phase struct {
	ops    int64
	wall   time.Duration
	rates  []float64 // ops/s of every slice
	latEnd []int     // len(r.lat) after every slice
	lat0   int       // len(r.lat) before the first
	before counters
	after  counters

	// Over the fixed-count prefix only.
	exact      counters
	exactOps   int64
	mallocs    uint64
	allocBytes uint64
	liveHeap   uint64
}

// runPhase times slices of w until both the fixed-count prefix of
// minSlices slices is done and `budget` has passed (or, on a traced pass,
// the span buffer is nearly full).
func runPhase(w world, r *run, budget time.Duration, minSlices int) (*phase, error) {
	ph := &phase{before: readCounters(w), lat0: len(r.lat)}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ops0 := r.ops
	start := time.Now()
	for i := 0; i < minSlices || time.Since(start) < budget; i++ {
		if r.tr != nil && i >= minSlices && r.tr.full(len(r.tr.spans)/(i+1)) {
			break
		}
		t0 := time.Now()
		n0 := r.ops
		if err := w.runSlice(r); err != nil {
			return nil, err
		}
		ph.rates = append(ph.rates, float64(r.ops-n0)/time.Since(t0).Seconds())
		ph.latEnd = append(ph.latEnd, len(r.lat))
		if i+1 == minSlices {
			runtime.ReadMemStats(&ms1)
			ph.exactOps = r.ops - ops0
			ph.exact = readCounters(w)
			ph.mallocs = ms1.Mallocs - ms0.Mallocs
			ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
			runtime.GC()
			runtime.ReadMemStats(&ms1)
			ph.liveHeap = ms1.HeapAlloc
		}
	}
	ph.wall = time.Since(start)
	ph.ops = r.ops - ops0
	ph.after = readCounters(w)
	return ph, nil
}

// quiet is the phase as the host ran it when nothing else disturbed it.
// The sandbox's noise is one-sided — a neighbour only ever slows a slice
// down, for a second or two at a time — so host-time metrics are taken
// over the quiet quarter: the quarter of the slices with the highest
// rate. It returns the median of their rates and their latency samples,
// sorted. A slice is long enough (tens of milliseconds, several garbage
// collections) that the program's own periodic costs fall in every one.
func (ph *phase) quiet(lat []float64) (rate float64, pool []float64) {
	order := make([]int, len(ph.rates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ph.rates[order[a]] > ph.rates[order[b]] })
	order = order[:(len(order)+3)/4]
	rates := make([]float64, len(order))
	for k, i := range order {
		rates[k] = ph.rates[i]
		from := ph.lat0
		if i > 0 {
			from = ph.latEnd[i-1]
		}
		pool = append(pool, lat[from:ph.latEnd[i]]...)
	}
	sort.Float64s(pool)
	return median(rates), pool
}

// warmUp runs one untimed slice so that caches fill and lazy set-up is
// done, then collects the garbage set-up left.
func warmUp(w world, r *run) error {
	if err := w.runSlice(r); err != nil {
		return err
	}
	r.lat = r.lat[:0]
	runtime.GC()
	return nil
}

// setUp builds the workload's world at least `times` times and for at
// least `budget`, and returns the last one with the median set-up time
// in seconds.
func setUp(wl workload, seed int64, scale int, r *run, times int, budget time.Duration) (world, float64, error) {
	var w world
	var took []float64
	for start := time.Now(); len(took) < times || time.Since(start) < budget; {
		w = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = wl.setup(seed, scale, r); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return w, median(took), nil
}

// endToEnd is an untraced run: the numbers a user of the system sees.
func endToEnd(wl workload, seed int64, seconds float64, scale int, m metrics) (int64, error) {
	r := &run{lat: make([]float64, 0, 1<<20), notes: map[string]float64{}}
	w, setupS, err := setUp(wl, seed, scale, r, scaled(minSetups, scale), setupBudget/time.Duration(scale))
	if err != nil {
		return 0, err
	}
	if err := warmUp(w, r); err != nil {
		return r.ops, err
	}
	ph, err := runPhase(w, r, time.Duration(seconds*float64(time.Second)), exactSlices)
	if err != nil {
		return r.ops, err
	}
	if err := w.finish(r); err != nil {
		return r.ops, err
	}
	rate, pool := ph.quiet(r.lat)
	m.set("setup_s", setupS)
	m.set("ops_per_s", rate)
	m.set("op_p50_us", percentile(pool, 50))
	m.set("sim_cycles_per_op", float64(ph.exact.cycles-ph.before.cycles)/float64(ph.exactOps))
	m.set("allocs_per_op", float64(ph.mallocs)/float64(ph.exactOps))
	m.set("alloc_kb_per_op", float64(ph.allocBytes)/1024/float64(ph.exactOps))
	m.set("live_heap_mb", float64(ph.liveHeap)/(1<<20))
	logf("%s seed %d: %d ops in %d slices over %.1fs; quiet quarter: %d latency samples of %d; slice spread %.1f%%",
		wl.name, seed, ph.ops, len(ph.rates), ph.wall.Seconds(), len(pool), len(r.lat), spreadPct(ph.rates))
	return r.ops, nil
}

// median, percentile and spreadPct work on copies; percentile expects
// sorted input.

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// spreadPct is the distance between the quartiles as a percentage of
// the median: the noise indicator printed beside host-time numbers.
func spreadPct(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q1, q3 := percentile(s, 25), percentile(s, 75)
	return 100 * (q3 - q1) / median(s)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
