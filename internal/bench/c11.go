package bench

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/oskit"
	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "C11",
		Title: "Capability-routed interrupts and timer-sliced scheduling",
		Paper: "§4.1 future work: 'scheduling guarantees, cross-domain interrupt routing'",
		Gates: []Gate{
			{"route-boot (dom0 owns nic)", "boot_irqs_to_holder", eq(1), "§4.1: cross-domain interrupt routing follows the device capability"},
			{"route-after grant to compartment", "granted_irqs_to_holder", eq(1), "the grantee receives the device's interrupts"},
			{"route-after revocation", "revoked_irqs_to_holder", eq(1), "revocation returns the interrupts with the capability"},
			{"unowned-dropped", "unowned_irqs_dropped", eq(1), "an interrupt nobody may receive is dropped, never misdelivered"},
			{"timer-fair-slicing", "spin1_instructions / spin2_instructions", eq(1), "§4.1: scheduling guarantees: timer slices are exactly fair"},
		},
	}, runC11)
}

// runC11 exercises the §4.1 extensions: device interrupts follow the
// device *capability* (not privilege) as it moves between domains, and
// the architectural one-shot timer gives kernels preemptive, fair
// slicing over uncooperative code. Shape: the IRQ receiver is always
// the capability holder at delivery time; interrupts with no capable
// receiver are dropped, not misdelivered; two spinning processes get
// instruction counts within a few percent of each other.
func runC11(cfg Config, res *Result) error {
	res.Columns = []string{"stage", "nic capability holder", "irq delivered to", "as expected"}
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return err
	}
	m := w.mon
	cpu := w.mach.Core(0)

	receiver := map[uint32]string{} // vector -> the handler that took it
	handler := func(tag string) core.IRQHandler {
		return func(c *hw.Core, irq hw.IRQ) error {
			receiver[irq.Vector] = tag
			return nil
		}
	}
	fire := func(vector uint32) error {
		w.mach.Device(1).RaiseIRQ(vector)
		cpu.PC = dom0Entry
		cpu.ClearHalt()
		_, err := m.RunCore(0, 10)
		return err
	}
	// expect reports whether vector reached the capability holder.
	expect := func(stage, holder, metric string, vector uint32) {
		got := orDash(receiver[vector])
		res.row(stage, holder, got, boolYes(got == holder))
		res.metric(metric, bit(got == holder))
	}

	// Stage 1: dom0 holds the NIC.
	if err := m.SetIRQHandler(core.InitialDomain, core.InitialDomain, handler("dom0")); err != nil {
		return err
	}
	if err := fire(1); err != nil {
		return err
	}
	expect("boot (dom0 owns nic)", "dom0", "boot_irqs_to_holder", 1)

	// Stage 2: the NIC is granted to a driver compartment.
	driver, err := m.CreateDomain(core.InitialDomain, "nic-driver")
	if err != nil {
		return err
	}
	var devNode cap.NodeID
	for _, n := range m.OwnerNodes(core.InitialDomain) {
		if n.Resource.Kind == cap.ResDevice && n.Resource.Device == 1 {
			devNode = n.ID
		}
	}
	grantNode, err := m.Grant(core.InitialDomain, devNode, driver, cap.DeviceResource(1), cap.RightUse|cap.RightDMA, cap.CleanNone)
	if err != nil {
		return err
	}
	if err := m.SetIRQHandler(core.InitialDomain, driver, handler("driver")); err != nil {
		return err
	}
	if err := fire(2); err != nil {
		return err
	}
	expect("after grant to compartment", "driver", "granted_irqs_to_holder", 2)

	// Stage 3: the grant is revoked; routing follows the capability
	// back.
	if err := m.Revoke(core.InitialDomain, grantNode); err != nil {
		return err
	}
	if err := fire(3); err != nil {
		return err
	}
	expect("after revocation", "dom0", "revoked_irqs_to_holder", 3)

	// Stage 4: nobody holds a handler for an unowned vector source.
	before := m.Stats().IRQsDropped
	w.mach.RaiseIRQ(phys.DeviceID(7), 4) // nonexistent device
	cpu.PC = dom0Entry
	cpu.ClearHalt()
	if _, err := m.RunCore(0, 10); err != nil {
		return err
	}
	dropped := m.Stats().IRQsDropped - before
	res.row("unowned device", "(none)", "dropped", boolYes(dropped == 1))
	res.metric("unowned_irqs_dropped", float64(dropped))

	// ---- Timer-sliced fairness over uncooperative spinners ----
	wos, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return err
	}
	osk, err := oskit.NewWithClient(wos.mon, wos.cl)
	if err != nil {
		return err
	}
	spin := func(base phys.Addr) []byte {
		a := hw.NewAsm()
		a.Label("s")
		a.Addi(1, 1, 1)
		a.Jmp("s")
		return a.MustAssemble(base)
	}
	p1, err := osk.Spawn("spin1", spin, 1, 0)
	if err != nil {
		return err
	}
	p2, err := osk.Spawn("spin2", spin, 1, 0)
	if err != nil {
		return err
	}
	slices := 40
	if cfg.Quick {
		slices = 16
	}
	counts := map[oskit.Pid]uint64{}
	for i := 0; i < slices; i++ {
		pid, _, err := osk.Schedule(0, 100)
		if err != nil {
			return err
		}
		counts[pid] += 100
	}
	c1, c2 := counts[p1], counts[p2]
	res.row(fmt.Sprintf("timer slicing: %d slices of 100 instr", slices),
		"-", fmt.Sprintf("spin1=%d spin2=%d", c1, c2), boolYes(c1 == c2))
	res.metric("spin1_instructions", float64(c1))
	res.metric("spin2_instructions", float64(c2))
	res.note("IRQ delivery charges a VM exit/entry pair; routed=%d dropped=%d on the routing world",
		m.Stats().IRQsRouted, m.Stats().IRQsDropped)
	return nil
}
