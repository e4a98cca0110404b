package bench

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/baseline"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "C14",
		Title: "Data-plane isolation overhead: per-call cost amortization",
		Paper: "§4.1's VMFUNC motivation (Hodor-style data-plane libraries) vs exit-based and SGX isolation",
		Run:   runC14,
	})
}

// runC14 measures what isolating a per-packet data-plane function costs
// across mechanisms, sweeping the payload size. The workload is a byte
// checksum; each call crosses the isolation boundary, processes the
// buffer, and crosses back. Shape: guest-level VMFUNC overhead is
// near-zero once buffers reach KiB scale; exit-based mediation needs
// much larger buffers to amortize; SGX world switches are the most
// expensive everywhere. This is the quantitative argument behind §4.1's
// interest in VMFUNC transitions.
func runC14(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C14", Title: "Data-plane amortization",
		Columns: []string{"bytes/call", "inline", "vmfunc comp.", "overhead", "mediated enclave", "overhead", "sgx ecall", "overhead"},
	}
	sizes := []uint64{64, 1024, 16384}
	if cfg.Quick {
		sizes = []uint64{64, 1024, 8192}
	}
	reps := 6

	type point struct{ inline, vmfunc, mediated, sgx uint64 }
	var points []point
	for _, n := range sizes {
		p := point{}
		var err error
		if p.inline, err = inlineChecksum(cfg, n, reps); err != nil {
			return nil, fmt.Errorf("inline %d: %w", n, err)
		}
		if p.vmfunc, err = vmfuncChecksum(cfg, n, reps); err != nil {
			return nil, fmt.Errorf("vmfunc %d: %w", n, err)
		}
		if p.mediated, err = mediatedChecksum(cfg, n, reps); err != nil {
			return nil, fmt.Errorf("mediated %d: %w", n, err)
		}
		if p.sgx, err = sgxChecksum(cfg, n, reps); err != nil {
			return nil, fmt.Errorf("sgx %d: %w", n, err)
		}
		points = append(points, p)
		res.row(fmtU(n), fmtU(p.inline),
			fmtU(p.vmfunc), pct(p.vmfunc, p.inline),
			fmtU(p.mediated), pct(p.mediated, p.inline),
			fmtU(p.sgx), pct(p.sgx, p.inline))
	}

	last := points[len(points)-1]
	first := points[0]
	res.check("ordering-at-small-buffers",
		first.inline < first.vmfunc && first.vmfunc < first.mediated && first.mediated < first.sgx,
		"64B: inline %d < vmfunc %d < mediated %d < sgx %d",
		first.inline, first.vmfunc, first.mediated, first.sgx)
	vmOver := float64(last.vmfunc-last.inline) / float64(last.inline)
	res.check("vmfunc-amortizes", vmOver < 0.02,
		"vmfunc overhead %.2f%% at %d bytes (near-free data-plane isolation)", vmOver*100, sizes[len(sizes)-1])
	medOverSmall := float64(first.mediated-first.inline) / float64(first.inline)
	medOverBig := float64(last.mediated-last.inline) / float64(last.inline)
	res.check("mediation-needs-amortization", medOverSmall > 1.0 && medOverBig < 0.25,
		"mediated overhead %.0f%% at %dB falling to %.1f%% at %dB",
		medOverSmall*100, sizes[0], medOverBig*100, sizes[len(sizes)-1])
	res.check("sgx-worst-everywhere",
		first.sgx > first.mediated && last.sgx > last.mediated,
		"sgx stays the most expensive mechanism at every size")
	res.note("workload: byte checksum, %d reps/point; cycles are per call including the crossing", reps)
	return res, nil
}

func pct(v, base uint64) string {
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("+%.1f%%", float64(v-base)/float64(base)*100)
}

// checksumBody emits the canonical loop: sum bytes [r2, r2+r3) into r5.
func checksumBody(a *hw.Asm) {
	a.Movi(4, 0)
	a.Movi(5, 0)
	a.Label("csloop")
	a.Jlt(4, 3, "csbody")
	a.Jmp("csdone")
	a.Label("csbody")
	a.Add(6, 2, 4)
	a.Ldb(7, 6, 0)
	a.Add(5, 5, 7)
	a.Addi(4, 4, 1)
	a.Jmp("csloop")
	a.Label("csdone")
}

// timeRuns runs the program at entry on core 0 `reps` times and returns
// the average cycles per run.
func timeRuns(w *world, entry phys.Addr, reps int, budget int) (uint64, error) {
	cpu := w.mach.Core(0)
	var total uint64
	for i := 0; i < reps; i++ {
		cpu.PC = entry
		cpu.ClearHalt()
		c, err := cycles(w.mach, func() error {
			res, err := w.mon.RunCore(0, budget)
			if err != nil {
				return err
			}
			if res.Trap.Kind != hw.TrapHalt {
				return fmt.Errorf("run ended with %v", res.Trap)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total / uint64(reps), nil
}

func inlineChecksum(cfg Config, n uint64, reps int) (uint64, error) {
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return 0, err
	}
	buf := phys.Addr(2<<20 + 0x4000) // slot-offset: avoid direct-mapped conflicts with code lines
	entry := phys.Addr(8 * phys.PageSize)
	a := hw.NewAsm()
	a.Movi(2, uint32(buf))
	a.Movi(3, uint32(n))
	checksumBody(a)
	a.Hlt()
	if err := w.mon.CopyInto(core.InitialDomain, entry, a.MustAssemble(entry)); err != nil {
		return 0, err
	}
	return timeRuns(w, entry, reps, int(n)*8+64)
}

func vmfuncChecksum(cfg Config, n uint64, reps int) (uint64, error) {
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return 0, err
	}
	m := w.mon
	comp, err := m.CreateDomain(core.InitialDomain, "dataplane")
	if err != nil {
		return 0, err
	}
	node := w.cl.HeapNode()
	coreNode := dom0CoreNodeB(w, 0)
	buf := phys.MakeRegion(2<<20+0x4000, ((n+phys.PageSize-1)/phys.PageSize)*phys.PageSize)
	// The compartment sees the packet buffer and the trampoline; its
	// private state (which the isolation protects) is irrelevant to the
	// timing.
	if _, err := m.Share(core.InitialDomain, node, comp, cap.MemResource(buf), cap.RightRead, cap.CleanNone); err != nil {
		return 0, err
	}
	if _, err := m.Share(core.InitialDomain, coreNode, comp, cap.CoreResource(0), cap.RightRun, cap.CleanNone); err != nil {
		return 0, err
	}
	tramp := phys.Addr(90 * phys.PageSize)
	a := hw.NewAsm()
	a.Movi(14, uint32(comp))
	a.Vmfunc()
	a.Movi(2, uint32(buf.Start))
	a.Movi(3, uint32(n))
	checksumBody(a)
	a.Movi(14, uint32(core.InitialDomain))
	a.Vmfunc()
	a.Hlt()
	code := a.MustAssemble(tramp)
	if err := m.CopyInto(core.InitialDomain, tramp, code); err != nil {
		return 0, err
	}
	trampPages := phys.MakeRegion(tramp, ((uint64(len(code))+phys.PageSize-1)/phys.PageSize)*phys.PageSize)
	if _, err := m.Share(core.InitialDomain, node, comp, cap.MemResource(trampPages), cap.MemRX, cap.CleanNone); err != nil {
		return 0, err
	}
	if err := m.SetEntry(core.InitialDomain, comp, tramp); err != nil {
		return 0, err
	}
	if err := m.RegisterFastPath(core.InitialDomain, core.InitialDomain, comp, 0); err != nil {
		return 0, err
	}
	return timeRuns(w, tramp, reps, int(n)*8+64)
}

func mediatedChecksum(cfg Config, n uint64, reps int) (uint64, error) {
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return 0, err
	}
	buf := phys.MakeRegion(2<<20+0x4000, ((n+phys.PageSize-1)/phys.PageSize)*phys.PageSize)
	img, err := w.cl.BuildAt("cs-enclave", func(base phys.Addr) *hw.Asm {
		a := hw.NewAsm()
		// args r2 (buf) r3 (len) arrive from the caller.
		checksumBody(a)
		a.Mov(1, 5)
		a.Movi(0, uint32(core.CallReturn))
		a.Vmcall()
		a.Hlt()
		return a
	})
	if err != nil {
		return 0, err
	}
	dom, err := w.cl.Load(img, loadOn(0))
	if err != nil {
		return 0, err
	}
	node := w.cl.HeapNode()
	if _, err := w.mon.Share(core.InitialDomain, node, dom.ID(), cap.MemResource(buf), cap.RightRead, cap.CleanNone); err != nil {
		return 0, err
	}
	// Host program: call the enclave with r2/r3, halt.
	entry := phys.Addr(8 * phys.PageSize)
	host := hw.NewAsm()
	host.Movi(0, uint32(core.CallDomainCall))
	host.Movi(1, uint32(dom.ID()))
	host.Movi(2, uint32(buf.Start))
	host.Movi(3, uint32(n))
	host.Vmcall()
	host.Hlt()
	if err := w.mon.CopyInto(core.InitialDomain, entry, host.MustAssemble(entry)); err != nil {
		return 0, err
	}
	return timeRuns(w, entry, reps, int(n)*8+128)
}

func sgxChecksum(cfg Config, n uint64, reps int) (uint64, error) {
	mach, err := hw.NewMachine(hw.Config{MemBytes: 16 << 20, NumCores: 1, IOMMUAllowByDefault: true})
	if err != nil {
		return 0, err
	}
	sgx := baseline.NewSGX(mach, 0)
	procMem := phys.MakeRegion(1<<20, 256*phys.PageSize)
	proc, err := sgx.NewProcess(procMem)
	if err != nil {
		return 0, err
	}
	el := phys.MakeRegion(procMem.Start, 4*phys.PageSize)
	buf := procMem.Start + 67*phys.PageSize // slot-offset, as for the other variants
	a := hw.NewAsm()
	a.Movi(2, uint32(buf))
	a.Movi(3, uint32(n))
	checksumBody(a)
	a.Hlt()
	if err := mach.Mem.WriteAt(el.Start, a.MustAssemble(el.Start)); err != nil {
		return 0, err
	}
	encl, err := proc.CreateEnclave(el, el.Start, false)
	if err != nil {
		return 0, err
	}
	cpu := mach.Cores[0]
	var total uint64
	for i := 0; i < reps; i++ {
		before := mach.Clock.Cycles()
		encl.EEnter(cpu)
		if _, trap := cpu.Run(int(n)*8 + 64); trap.Kind != hw.TrapHalt {
			return 0, fmt.Errorf("sgx run: %v", trap)
		}
		encl.EExit(cpu)
		total += mach.Clock.Cycles() - before
	}
	return total / uint64(reps), nil
}

// dom0CoreNodeB finds dom0's capability for a core.
func dom0CoreNodeB(w *world, c phys.CoreID) cap.NodeID {
	for _, n := range w.mon.OwnerNodes(core.InitialDomain) {
		if n.Resource.Kind == cap.ResCore && n.Resource.Core == c {
			return n.ID
		}
	}
	return 0
}
