package core

import (
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/trace"
)

// Cross-domain interrupt routing (§4.1: "we are also exploring how to
// extend capabilities to provide scheduling guarantees, cross-domain
// interrupt routing"). Device interrupts are routed by *capability*:
// the monitor delivers a device's IRQ to the domain holding RightUse on
// it — not to whoever is privileged. A driver compartment therefore
// receives its NIC's interrupts even though the host kernel created it,
// and the host kernel stops seeing them the moment it grants the device
// away.

// IRQHandler is a domain's Go-level interrupt handler (its "interrupt
// descriptor table entry"); it runs with the trapping core visible.
type IRQHandler func(c *hw.Core, irq hw.IRQ) error

// SetIRQHandler installs the domain's interrupt handler. The domain
// itself or its creator may configure it.
func (m *Monitor) SetIRQHandler(caller, id DomainID, h IRQHandler) error {
	d, err := m.domainFor(caller, id, "install IRQ handlers for")
	if err != nil {
		return err
	}
	d.irq = h
	return nil
}

// routeIRQs drains the interrupt controller, delivering each interrupt
// to the domain holding the device capability. Interrupts for devices
// whose holder has no handler (or devices nobody holds) are dropped and
// counted — exactly what real hardware does with masked vectors.
//
// Go-level handlers are domain kernels that re-enter the monitor
// through its public API.
func (m *Monitor) routeIRQs(c *hw.Core) error {
	for {
		irq, ok := m.mach.TakeIRQ()
		if !ok {
			return nil
		}
		var handler IRQHandler
		for _, owner := range m.space.DeviceUsers(irq.Device) {
			d, ok := m.tab.get(DomainID(owner))
			if !ok || d.State() == StateDead {
				continue
			}
			h := d.irq
			if h == nil {
				continue
			}
			m.stats.IRQsRouted++
			m.emit(trace.KIRQRoute, DomainID(owner), uint64(irq.Device), uint64(irq.Vector), 0, 0)
			handler = h
			break
		}
		if handler == nil {
			m.stats.IRQsDropped++
			m.emit(trace.KIRQDrop, 0, uint64(irq.Device), uint64(irq.Vector), 0, 0)
		}
		if handler == nil {
			continue
		}
		m.mach.Clock.Advance(m.mach.Cost.VMExit)
		err := handler(c, irq)
		m.mach.Clock.Advance(m.mach.Cost.VMEntry)
		if err != nil {
			return err
		}
	}
}
