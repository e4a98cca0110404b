package bench

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/fault"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/image"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "C16",
		Title: "Fault containment: kill-and-reclaim latency vs domain size and core count",
		Paper: "§3 revocation over the lineage forest; §5 'reduced TCB' — a crashed domain must be destroyable without trusting it",
		Gates: []Gate{
			{"{kills}-scrub-exact", "{kills}_scrubbed_pages / {kills}_pages", eq(1), "§3.2: a kill scrubs every page the domain held exclusively"},
			{"{kills}-memory-scrubbed", "{kills}_nonzero_reclaimed_bytes", eq(0), "reclaimed memory reads as zero"},
			{"{kills}-refcounts-consistent", "{kills}_refcount_mismatches", eq(0), "§3.2: refcounts stay exact after a kill"},
			{"latency-scales-with-size", "size_kill_growth", gt(1), "kill cycles grow with domain size (the scrub)"},
			{"shootdown-pays-resident-cores", "cores_kill_cycles_per_ack", eq(200), "a victim resident on every core: each extra core costs one TLBFlush per round, exactly"},
			{"idle-cores-not-interrupted", "idle_kill_acks", eq(0), "a kill interrupts no core the victim never ran on"},
			{"latency-flat-vs-domains", "kill_cycles_vs_domains_ratio", le(1.1), "a kill never walks the bystanders"},
			{"e2e-fault-fired", "e2e_faults_pending", eq(0), "the injected machine check fired"},
			{"e2e-victim-killed", "e2e_victim_machine_checks", eq(1), "§5: a crashed domain is destroyable without trusting it"},
			{"e2e-victim-killed", "e2e_forced_kills", eq(1), ""},
			{"e2e-survivor-completed", "e2e_survivor_halted", eq(1), "the survivor on another core finishes"},
			{"e2e-survivor-completed", "e2e_survivor_result", eq(45), "with the right answer"},
			{"e2e-victim-gone", "e2e_victim_enumerated", eq(0), "the dead domain is no longer enumerated"},
		},
	}, runC16)
}

// runC16 measures the monitor's containment path: force-killing a
// domain revokes its capability subtree, scrubs its exclusive memory,
// shoots down the TLBs of the cores the domain ran on, and removes the
// backend state. The latency is dominated by the scrub (linear in
// domain size) and the per-core TLB shootdown (linear in the cores the
// victim is resident on — launched on every core of the core axis, on
// none elsewhere); the sweep exposes both axes. A third axis holds the victim fixed and grows the population of
// unrelated live domains: revocation detaches only the victim's
// subtree, so kill latency must stay flat as the rest of the machine fills up — the
// bystanders are never walked, locked, or resynced. A final end-to-end
// round injects a deterministic machine check under a running victim
// and checks that a concurrent survivor finishes its workload untouched
// — containment, not just teardown.
func runC16(cfg Config, res *Result) error {
	res.Columns = []string{"domain pages", "cores", "bystanders", "kill cycles", "cycles/page", "scrubbed", "acks"}
	sizeSweep := []uint64{16, 64, 256}
	coreSweep := []int{1, 2, 4}
	domSweep := []int{0, 8, 32}
	if cfg.Quick {
		sizeSweep = []uint64{16, 128}
		coreSweep = []int{1, 4}
		domSweep = []int{0, 16}
	}
	// Axis 1: domain size at a fixed 2-core machine.
	var sizeCycles []uint64
	var idleAcks uint64
	for _, pages := range sizeSweep {
		kc, acks, err := c16Kill(cfg, res, pages, 2, 0, false)
		if err != nil {
			return err
		}
		sizeCycles = append(sizeCycles, kc)
		idleAcks += acks
	}
	res.metric("size_kill_growth", minGrowth(sizeCycles))

	// Axis 2: core count at a fixed 64-page domain launched on every
	// core, so each of its rounds targets them all: the kill's growth
	// over the sweep is TLBFlush per extra ack, nothing else.
	var coreCycles, coreAcks []uint64
	for _, cores := range coreSweep {
		kc, acks, err := c16Kill(cfg, res, 64, cores, 0, true)
		if err != nil {
			return err
		}
		coreCycles, coreAcks = append(coreCycles, kc), append(coreAcks, acks)
	}
	res.metric("cores_kill_cycles_per_ack",
		float64(last(coreCycles)-coreCycles[0])/float64(last(coreAcks)-coreAcks[0]))

	// Axis 3: live-domain count at a fixed 64-page victim on 2 cores.
	// Containment touches the victim's subtree and nothing else, so the
	// kill must cost the same on a crowded machine as on an empty one.
	var domCycles []uint64
	for _, n := range domSweep {
		kc, acks, err := c16Kill(cfg, res, 64, 2, n, false)
		if err != nil {
			return err
		}
		domCycles = append(domCycles, kc)
		idleAcks += acks
	}
	res.metric("idle_kill_acks", float64(idleAcks))
	res.metric("kill_cycles_vs_domains_ratio", float64(last(domCycles))/float64(domCycles[0]))

	// End to end: inject a machine check under a running victim while a
	// survivor computes on another core.
	if err := c16EndToEnd(cfg, res); err != nil {
		return err
	}
	return nil
}

// minGrowth is the smallest ratio between consecutive points of a
// sweep: above 1 when every point costs more than the one before.
func minGrowth(vals []uint64) float64 {
	g := math.Inf(1)
	for i := 1; i < len(vals); i++ {
		g = min(g, float64(vals[i])/float64(vals[i-1]))
	}
	return g
}

// c16Victim builds and loads a domain with one code page and a
// (pages-1)-page exclusive data segment, runnable on cores, and returns
// it with that segment.
func c16Victim(w *world, pages uint64, cores ...phys.CoreID) (*libtyche.Domain, phys.Region, error) {
	prog := func(base phys.Addr) *hw.Asm {
		a := hw.NewAsm()
		a.Movi(2, 0xAB)
		a.Label("loop")
		a.St(1, 0, 2) // r1 poked to the data base after Launch
		a.Jmp("loop")
		return a
	}
	img, err := w.cl.BuildAt("victim", prog,
		func(img *image.Image) { img.WithBSS(".data", (pages-1)*phys.PageSize) })
	if err != nil {
		return nil, phys.Region{}, err
	}
	dom, err := w.cl.Load(img, loadOn(cores...))
	if err != nil {
		return nil, phys.Region{}, err
	}
	data, ok := dom.SegmentRegion(".data")
	if !ok {
		return nil, phys.Region{}, fmt.Errorf("c16: victim has no data segment")
	}
	return dom, data, nil
}

// c16Kill measures one ForceKill on an idle machine, so the cycle delta
// is exactly the containment path: revocation, scrub, shootdown,
// backend removal. bystanders unrelated live domains are loaded before
// the victim so the domain-count axis can show the kill never walks
// them. A resident victim is launched on every core first. It returns
// the kill's cycles and its shootdown acks — the TLB flushes it made
// summed over cores.
func c16Kill(cfg Config, res *Result, pages uint64, cores int, bystanders int, resident bool) (kc, acks uint64, err error) {
	opts := defaultWorldOpts()
	opts.cores = cores
	w, err := newWorld(cfg, opts)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < bystanders; i++ {
		if _, err := w.cl.Load(haltImage(fmt.Sprintf("bystander%d", i)), loadOn()); err != nil {
			return 0, 0, err
		}
	}
	var on []phys.CoreID
	if resident {
		on = w.mach.CoreIDs()
	}
	dom, data, err := c16Victim(w, pages, on...)
	if err != nil {
		return 0, 0, err
	}
	for _, c := range on {
		if err := dom.Launch(c); err != nil {
			return 0, 0, err
		}
	}
	flushes := func() (n uint64) {
		for _, c := range w.mach.Cores {
			_, _, f := c.TLBUnit().Stats()
			n += f
		}
		return n
	}
	before, flushed := w.mon.Stats(), flushes()
	kc, err = cycles(w.mach, func() error { return w.mon.ForceKill(dom.ID()) })
	if err != nil {
		return 0, 0, err
	}
	after := w.mon.Stats()
	scrubbed := after.PagesScrubbed - before.PagesScrubbed
	acks = flushes() - flushed

	tag := fmt.Sprintf("p%d_c%d", pages, cores)
	if bystanders > 0 {
		tag += fmt.Sprintf("_d%d", bystanders)
	}
	res.row(fmtU(pages), fmt.Sprintf("%d", cores), fmt.Sprintf("%d", bystanders), fmtU(kc),
		fmt.Sprintf("%.0f", float64(kc)/float64(pages)), fmtU(scrubbed), fmtU(acks))
	res.sweep("kills", tag)
	res.metric(tag+"_kill_cycles", float64(kc))
	res.metric(tag+"_scrubbed_pages", float64(scrubbed))
	res.metric(tag+"_pages", float64(pages))
	// The memory reverted to dom0 and reads as zero.
	buf, err := w.mon.CopyFrom(core.InitialDomain, data.Start, phys.PageSize)
	if err != nil {
		return 0, 0, err
	}
	nonzero := len(buf) - bytes.Count(buf, []byte{0})
	res.metric(tag+"_nonzero_reclaimed_bytes", float64(nonzero))
	mismatches := 0
	for _, rc := range w.mon.RefCounts() {
		mismatches += int(bit(rc.Count != len(rc.Owners)))
	}
	res.metric(tag+"_refcount_mismatches", float64(mismatches))
	return kc, acks, nil
}

// c16EndToEnd reproduces the containment scenario the fault tests pin
// down, as a benchmark check: victim on core 1 killed by an injected
// machine check while dom0's workload on core 0 runs to completion.
func c16EndToEnd(cfg Config, res *Result) error {
	opts := defaultWorldOpts()
	opts.cores = 2
	w, err := newWorld(cfg, opts)
	if err != nil {
		return err
	}
	dom, data, err := c16Victim(w, 16, 1)
	if err != nil {
		return err
	}
	// Survivor workload for dom0 on core 0: sum 0..9 into r1.
	a := hw.NewAsm()
	a.Movi(1, 0)
	a.Movi(2, 0)
	a.Movi(3, 10)
	a.Label("loop")
	a.Add(1, 1, 2)
	a.Addi(2, 2, 1)
	a.Jlt(2, 3, "loop")
	a.Hlt()
	if err := w.mon.CopyInto(core.InitialDomain, dom0Entry, a.MustAssemble(dom0Entry)); err != nil {
		return err
	}
	if err := w.mon.Launch(core.InitialDomain, 0); err != nil {
		return err
	}
	if err := dom.Launch(1); err != nil {
		return err
	}
	w.mach.Core(1).Regs[1] = uint64(data.Start)
	sched, err := fault.ParseSchedule("mc1@500")
	if err != nil {
		return err
	}
	in := fault.NewInjector(sched...)
	in.Arm(w.mach, w.rot)
	runs, err := w.mon.RunCores(100_000, 0, 1)
	if err != nil {
		return err
	}
	st := w.mon.Stats()
	res.metric("e2e_pages_scrubbed", float64(st.PagesScrubbed))
	res.note("end-to-end: schedule mc1@500, fired %v; victim trap %v, survivor trap %v", in.Fired(), runs[1].Trap, runs[0].Trap)
	res.metric("e2e_faults_pending", bit(!in.Exhausted()))
	res.metric("e2e_victim_machine_checks", bit(runs[1].Trap.Kind == hw.TrapMachineCheck))
	res.metric("e2e_forced_kills", float64(st.ForcedKills))
	res.metric("e2e_survivor_halted", bit(runs[0].Trap.Kind == hw.TrapHalt))
	res.metric("e2e_survivor_result", float64(w.mach.Core(0).Regs[1]))
	res.metric("e2e_victim_enumerated", bit(slices.Contains(w.mon.Domains(), dom.ID())))
	return nil
}
