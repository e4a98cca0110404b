package bench

import (
	"github.com/tyche-sim/tyche/internal/baseline"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/oskit"
	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "C2",
		Title: "Domain transition mechanisms: VMFUNC vs exits vs context switches vs SGX",
		Paper: "§4.1 'fast (100 cycles) domain transitions using VMFUNC'",
		Gates: []Gate{
			{"vmfunc-about-100-cycles", "fast_switch_cycles", within(80, 200), "§4.1: fast (100 cycles) domain transitions using VMFUNC"},
			{"vmfunc-10x-under-exits", "mediated_vtx_cycles / fast_switch_cycles", ge(10), "the fast path is an order of magnitude under exit-based transitions"},
			{"fast-beats-process-switch", "ctx_switch_cycles / fast_switch_cycles", ge(5), "compartment crossings no longer cost a process switch"},
			{"mediated-same-order-as-ctxswitch", "mediated_vtx_cycles / ctx_switch_cycles", lt(10), "a mediated call costs the order of a context switch"},
			{"sgx-most-expensive", "sgx_cycles / mediated_vtx_cycles", gt(1), "SGX world switches cost most"},
			{"sgx-most-expensive", "sgx_cycles / ctx_switch_cycles", gt(1), ""},
			{"sgx-most-expensive", "sgx_cycles / mediated_pmp_cycles", gt(1), ""},
		},
	}, runC2)
}

// runC2 measures the cycle cost of every control-transfer mechanism in
// the system. The shape that must hold: the VMFUNC fast switch is ~100
// cycles and at least an order of magnitude below exit-based
// transitions, which in turn beat OS process context switches and SGX
// world switches.
func runC2(cfg Config, res *Result) error {
	res.Columns = []string{"mechanism", "system", "cycles/transition", "vs VMFUNC"}
	iters := 200
	if cfg.Quick {
		iters = 50
	}

	// --- Tyche vtx: fast switch and mediated call/return.
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return err
	}
	opts := loadOn(0)
	opts.FastPathCore = 0
	comp, err := w.cl.Load(addImage("c2-comp", 1), opts)
	if err != nil {
		return err
	}
	// Fast switches: bounce dom0 <-> comp.
	fastPair, err := cyclesPer(w.mach, iters, func() error {
		if err := w.mon.FastSwitch(0, comp.ID()); err != nil {
			return err
		}
		return w.mon.FastSwitch(0, core.InitialDomain)
	})
	if err != nil {
		return err
	}
	fastPer := fastPair / 2

	// Mediated call + return round trip (two exit+entry pairs plus the
	// domain's work; we use an empty service so the monitor path
	// dominates).
	callPer, err := cyclesPer(w.mach, iters, func() error {
		_, err := comp.Invoke(0, 10000, 1)
		return err
	})
	if err != nil {
		return err
	}

	// --- Tyche pmp: mediated transition with PMP reprogramming.
	pmpCfg := cfg
	pmpCfg.Backend = core.BackendPMP
	wp, err := newWorld(pmpCfg, defaultWorldOpts())
	if err != nil {
		return err
	}
	pmpComp, err := wp.cl.Load(addImage("c2-pmp", 1), loadOn(0))
	if err != nil {
		return err
	}
	pmpPer, err := cyclesPer(wp.mach, iters, func() error {
		_, err := pmpComp.Invoke(0, 10000, 1)
		return err
	})
	if err != nil {
		return err
	}

	// --- OS process context switch (per switch, via yielding pair).
	wos, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return err
	}
	osk, err := oskit.New(wos.mon, core.InitialDomain, dom0ReservePages)
	if err != nil {
		return err
	}
	spin := func(base phys.Addr) []byte {
		a := hw.NewAsm()
		a.Label("top")
		a.Movi(0, uint32(oskit.SysYield)).Syscall()
		a.Jmp("top")
		return a.MustAssemble(base)
	}
	if _, err := osk.Spawn("y1", spin, 1, 0); err != nil {
		return err
	}
	if _, err := osk.Spawn("y2", spin, 1, 0); err != nil {
		return err
	}
	ctxPer, err := cyclesPer(wos.mach, iters, func() error {
		_, _, err := osk.Schedule(0, 1000)
		return err
	})
	if err != nil {
		return err
	}

	// --- Syscall round trip inside one domain.
	if err := wos.mon.SetSyscallHandler(core.InitialDomain, core.InitialDomain, func(c *hw.Core) error { return nil }); err != nil {
		return err
	}
	sysProg := hw.NewAsm()
	for i := 0; i < 8; i++ {
		sysProg.Movi(0, 99).Syscall()
	}
	sysProg.Hlt()
	sysBase := phys.Addr(8 * phys.PageSize)
	if err := wos.mon.CopyInto(core.InitialDomain, sysBase, sysProg.MustAssemble(sysBase)); err != nil {
		return err
	}
	kernelCtx, err := wos.mon.DomainContext(core.InitialDomain, core.InitialDomain, 0)
	if err != nil {
		return err
	}
	kernelCtx.OSFilter = nil
	sysTotal := uint64(0)
	for i := 0; i < iters/8; i++ {
		wos.mach.Core(0).PC = sysBase
		wos.mach.Core(0).ClearHalt()
		c, err := cycles(wos.mach, func() error {
			_, err := wos.mon.RunCore(0, 1000)
			return err
		})
		if err != nil {
			return err
		}
		sysTotal += c
	}
	sysPer := sysTotal / uint64(iters/8*8)

	// --- SGX EENTER/EEXIT round trip.
	sgxMach, err := hw.NewMachine(hw.Config{MemBytes: 8 << 20, NumCores: 1, IOMMUAllowByDefault: true})
	if err != nil {
		return err
	}
	sgx := baseline.NewSGX(sgxMach, 0)
	proc, err := sgx.NewProcess(phys.MakeRegion(0x100000, 64*phys.PageSize))
	if err != nil {
		return err
	}
	encl, err := proc.CreateEnclave(phys.MakeRegion(0x100000, 4*phys.PageSize), 0x100000, false)
	if err != nil {
		return err
	}
	sgxPer, _ := cyclesPer(sgxMach, iters, func() error {
		encl.EEnter(sgxMach.Cores[0])
		encl.EExit(sgxMach.Cores[0])
		return nil
	})

	rows := []struct {
		name, sys, metric string
		per               uint64
	}{
		{"VMFUNC fast switch", "tyche/vtx", "fast_switch", fastPer},
		{"syscall round trip (ring3->0->3)", "oskit in-domain", "syscall", sysPer},
		{"mediated call+return (VM exits)", "tyche/vtx", "mediated_vtx", callPer},
		{"mediated call+return (PMP reprogram)", "tyche/pmp", "mediated_pmp", pmpPer},
		{"process context switch", "oskit scheduler", "ctx_switch", ctxPer},
		{"EENTER+EEXIT round trip", "sgx baseline", "sgx", sgxPer},
	}
	for _, r := range rows {
		res.row(r.name, r.sys, fmtU(r.per), fmtRatio(r.per, fastPer))
		res.metric(r.metric+"_cycles", float64(r.per))
	}
	res.note("mediated call+return includes two exit/entry pairs plus service code; iters=%d", iters)
	return nil
}
