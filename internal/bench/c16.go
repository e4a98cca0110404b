package bench

import (
	"fmt"
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
		Run:   runC16,
	})
}

// runC16 measures the monitor's containment path: force-killing a
// domain revokes its capability subtree, scrubs its exclusive memory,
// shoots down every core's TLB, and removes the backend state. The
// latency is dominated by the scrub (linear in domain size) and the
// per-core TLB shootdown (linear in core count); the sweep exposes both
// axes. A third axis holds the victim fixed and grows the population of
// unrelated live domains: epoch-based revocation detaches only the
// victim's subtree and defers node frees to the grace period, so kill
// latency must stay flat as the rest of the machine fills up — the
// bystanders are never walked, locked, or resynced. A final end-to-end
// round injects a deterministic machine check under a running victim
// and checks that a concurrent survivor finishes its workload untouched
// — containment, not just teardown.
func runC16(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C16", Title: "Kill-and-reclaim latency",
		Columns: []string{"domain pages", "cores", "bystanders", "kill cycles", "cycles/page", "scrubbed"},
	}
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
	for _, pages := range sizeSweep {
		kc, err := c16Kill(cfg, res, pages, 2, 0)
		if err != nil {
			return nil, err
		}
		sizeCycles = append(sizeCycles, kc)
	}
	grows := true
	for i := 1; i < len(sizeCycles); i++ {
		if sizeCycles[i] <= sizeCycles[i-1] {
			grows = false
		}
	}
	res.check("latency-scales-with-size", grows,
		"kill cycles grow with domain size: %v", sizeCycles)

	// Axis 2: core count at a fixed 64-page domain (TLB shootdown cost).
	var coreCycles []uint64
	for _, cores := range coreSweep {
		kc, err := c16Kill(cfg, res, 64, cores, 0)
		if err != nil {
			return nil, err
		}
		coreCycles = append(coreCycles, kc)
	}
	res.check("shootdown-scales-with-cores",
		coreCycles[len(coreCycles)-1] > coreCycles[0],
		"kill cycles grow with core count (TLB shootdown): %v", coreCycles)

	// Axis 3: live-domain count at a fixed 64-page victim on 2 cores.
	// Containment touches the victim's subtree and nothing else, so the
	// kill must cost the same on a crowded machine as on an empty one.
	var domCycles []uint64
	for _, n := range domSweep {
		kc, err := c16Kill(cfg, res, 64, 2, n)
		if err != nil {
			return nil, err
		}
		domCycles = append(domCycles, kc)
	}
	base, crowded := domCycles[0], domCycles[len(domCycles)-1]
	res.metric("kill_cycles_vs_domains_ratio", float64(crowded)/float64(base))
	res.check("latency-flat-vs-domains",
		crowded <= base+base/10,
		"kill cycles flat as live domains grow %v -> %v: %v (crowded/empty %.2fx, allowed 1.10x)",
		domSweep[0], domSweep[len(domSweep)-1], domCycles, float64(crowded)/float64(base))

	// End to end: inject a machine check under a running victim while a
	// survivor computes on another core.
	if err := c16EndToEnd(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// c16Victim builds and loads a domain with one code page and a
// (pages-1)-page exclusive data segment, pinned to core 1 when present.
func c16Victim(w *world, pages uint64, run bool) (*libtyche.Domain, error) {
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
		return nil, err
	}
	if run {
		return w.cl.Load(img, loadOn(1))
	}
	return w.cl.Load(img, loadOn())
}

// c16Kill measures one ForceKill on an idle machine, so the cycle delta
// is exactly the containment path: revocation, scrub, shootdown,
// backend removal. bystanders unrelated live domains are loaded before
// the victim so the domain-count axis can show the kill never walks
// them.
func c16Kill(cfg Config, res *Result, pages uint64, cores int, bystanders int) (uint64, error) {
	opts := defaultWorldOpts()
	opts.cores = cores
	w, err := newWorld(cfg, opts)
	if err != nil {
		return 0, err
	}
	for i := 0; i < bystanders; i++ {
		if _, err := w.cl.Load(haltImage(fmt.Sprintf("bystander%d", i)), loadOn()); err != nil {
			return 0, err
		}
	}
	dom, err := c16Victim(w, pages, false)
	if err != nil {
		return 0, err
	}
	data, ok := dom.SegmentRegion(".data")
	if !ok {
		return 0, fmt.Errorf("c16: victim has no data segment")
	}
	before := w.mon.Stats()
	kc, err := cycles(w.mach, func() error { return w.mon.ForceKill(dom.ID()) })
	if err != nil {
		return 0, err
	}
	after := w.mon.Stats()
	scrubbed := after.PagesScrubbed - before.PagesScrubbed

	tag := fmt.Sprintf("p%d_c%d", pages, cores)
	if bystanders > 0 {
		tag += fmt.Sprintf("_d%d", bystanders)
	}
	res.row(fmtU(pages), fmt.Sprintf("%d", cores), fmt.Sprintf("%d", bystanders), fmtU(kc),
		fmt.Sprintf("%.0f", float64(kc)/float64(pages)), fmtU(scrubbed))
	res.metric(tag+"_kill_cycles", float64(kc))
	res.metric(tag+"_scrubbed_pages", float64(scrubbed))

	res.check(tag+"-scrub-exact", scrubbed == pages,
		"containment scrubbed %d pages for a %d-page domain", scrubbed, pages)
	// The memory reverted to dom0 and reads as zero.
	buf, err := w.mon.CopyFrom(core.InitialDomain, data.Start, phys.PageSize)
	if err != nil {
		return 0, err
	}
	zero := !slices.ContainsFunc(buf, func(b byte) bool { return b != 0 })
	res.check(tag+"-memory-scrubbed", zero, "first reclaimed page reads as zero")
	clean := true
	for _, rc := range w.mon.RefCounts() {
		if rc.Count != len(rc.Owners) {
			clean = false
		}
	}
	res.check(tag+"-refcounts-consistent", clean, "refcount audit after kill")
	return kc, nil
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
	dom, err := c16Victim(w, 16, true)
	if err != nil {
		return err
	}
	data, ok := dom.SegmentRegion(".data")
	if !ok {
		return fmt.Errorf("c16: victim has no data segment")
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
	res.note("end-to-end: schedule mc1@500")

	res.check("e2e-fault-fired", in.Exhausted(),
		"injected schedule fired: %v", in.Fired())
	res.check("e2e-victim-killed",
		runs[1].Trap.Kind == hw.TrapMachineCheck && st.ForcedKills == 1,
		"victim trapped with %v, forced kills %d", runs[1].Trap, st.ForcedKills)
	res.check("e2e-survivor-completed",
		runs[0].Trap.Kind == hw.TrapHalt && w.mach.Core(0).Regs[1] == 45,
		"survivor trap %v, result %d (want 45)", runs[0].Trap, w.mach.Core(0).Regs[1])
	dead := true
	for _, id := range w.mon.Domains() {
		if id == dom.ID() {
			dead = false
		}
	}
	res.check("e2e-victim-gone", dead, "dead domain no longer enumerated")
	return nil
}
