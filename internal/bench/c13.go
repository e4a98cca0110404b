package bench

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "C13",
		Title: "Ablations: tagged TLBs and the revocation shootdown",
		Paper: "design choices behind §4.1's fast transitions and §3.2's guaranteed cleanups",
		Gates: []Gate{
			{"tagging-keeps-tlb-warm", "cold_probe_cycles / warm_probe_cycles", gt(1), "ASID tags keep translations across the fast path"},
			{"stale-tlb-window-exists", "stale_access_survives", eq(1), "without a shootdown the revoked mapping stays usable"},
			{"shootdown-closes-window", "flushed_access_faults", eq(1), "§3.2: the shootdown is part of the guaranteed cleanup"},
		},
	}, runC13)
}

// runC13 ablates two design choices the headline numbers depend on.
//
// (a) ASID-tagged TLBs: the VMFUNC fast path is only fast because the
// tagged TLB survives the switch. We measure a domain's memory access
// immediately after returning via the fast path (warm) vs after a full
// exit-based transition (TLB flushed, cold).
//
// (b) TLB shootdown on revocation: with real (non-coherent) TLBs, a
// revocation that skips the flush leaves a stale-translation window —
// the revoked domain can keep accessing the memory. We execute that
// attack: it SUCCEEDS with CleanNone and is closed by CleanFlushTLB.
// This is why the monitor treats the flush as part of the guaranteed
// cleanup, not an optimization.
func runC13(cfg Config, res *Result) error {
	res.Columns = []string{"ablation", "variant", "result"}

	// ---------- (a) tagged-TLB benefit ----------
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return err
	}
	opts := loadOn(0)
	opts.FastPathCore = 0
	dom, err := w.cl.Load(addImage("c13", 1), opts)
	if err != nil {
		return err
	}
	// A one-load probe program in dom0.
	probeAddr := phys.Addr(8 * phys.PageSize)
	probe := hw.NewAsm()
	probe.Movi(1, uint32(probeAddr)).Ld(2, 1, 0).Hlt()
	if err := w.mon.CopyInto(core.InitialDomain, probeAddr, probe.MustAssemble(probeAddr)); err != nil {
		return err
	}
	cpu := w.mach.Core(0)
	runProbe := func() (uint64, error) {
		cpu.PC = probeAddr
		cpu.ClearHalt()
		return cycles(w.mach, func() error {
			_, err := w.mon.RunCore(0, 10)
			return err
		})
	}
	// Warm the TLB, bounce through the fast path, and re-probe.
	if _, err := runProbe(); err != nil {
		return err
	}
	if err := w.mon.FastSwitch(0, dom.ID()); err != nil {
		return err
	}
	if err := w.mon.FastSwitch(0, core.InitialDomain); err != nil {
		return err
	}
	warm, err := runProbe()
	if err != nil {
		return err
	}
	// Now bounce through full transitions (untagged path: flush).
	if err := w.mon.Call(0, dom.ID()); err != nil {
		return err
	}
	if err := w.mon.Return(0); err != nil {
		return err
	}
	cold, err := runProbe()
	if err != nil {
		return err
	}
	res.row("TLB after domain round trip", "tagged (VMFUNC path)", fmt.Sprintf("%d cycles/probe (warm)", warm))
	res.row("TLB after domain round trip", "untagged (exit path flushes)", fmt.Sprintf("%d cycles/probe (cold)", cold))
	res.metric("warm_probe_cycles", float64(warm))
	res.metric("cold_probe_cycles", float64(cold))

	// ---------- (b) revocation shootdown ----------
	attack := func(policy cap.Cleanup) (hw.TrapKind, error) {
		w, err := newWorld(cfg, defaultWorldOpts())
		if err != nil {
			return 0, err
		}
		target := phys.MakeRegion(2<<20, phys.PageSize)
		// Victim domain: loads from target in an infinite loop.
		vImg, err := w.cl.BuildAt("tlb-victim", func(base phys.Addr) *hw.Asm {
			a := hw.NewAsm()
			a.Movi(1, uint32(target.Start))
			a.Label("loop")
			a.Ld(2, 1, 0)
			a.Jmp("loop")
			return a
		})
		if err != nil {
			return 0, err
		}
		victim, err := w.cl.Load(vImg, loadOn(1))
		if err != nil {
			return 0, err
		}
		share, err := w.mon.Share(core.InitialDomain, w.cl.HeapNode(), victim.ID(), cap.MemResource(target), cap.RightRead, policy)
		if err != nil {
			return 0, err
		}
		// Run the victim: its TLB caches the translation.
		if err := victim.Launch(1); err != nil {
			return 0, err
		}
		if _, err := w.mon.RunCore(1, 50); err != nil {
			return 0, err
		}
		// Revoke while the victim is off-core but its context (and TLB)
		// stay live; the cleanup policy decides whether a shootdown
		// happens.
		if err := w.mon.Revoke(core.InitialDomain, share); err != nil {
			return 0, err
		}
		// Resume the victim without a context reinstall.
		resOut, err := w.mon.RunCore(1, 50)
		if err != nil {
			return 0, err
		}
		return resOut.Trap.Kind, nil
	}
	noFlush, err := attack(cap.CleanNone)
	if err != nil {
		return err
	}
	withFlush, err := attack(cap.CleanFlushTLB)
	if err != nil {
		return err
	}
	res.row("access revoked memory via stale TLB", "no shootdown (CleanNone)",
		boolCellWord(noFlush == hw.TrapNone, "ACCESS STILL SUCCEEDS", noFlush.String()))
	res.row("access revoked memory via stale TLB", "shootdown (CleanFlushTLB)",
		boolCellWord(withFlush == hw.TrapFault, "faults immediately", withFlush.String()))
	res.metric("stale_access_survives", bit(noFlush == hw.TrapNone))
	res.metric("flushed_access_faults", bit(withFlush == hw.TrapFault))
	res.note("the monitor therefore couples revocation to TLB shootdown; 'fast' transitions rely on tags, not on skipping coherence")
	return nil
}
