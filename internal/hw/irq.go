package hw

import (
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// Interrupts and timers (§4.1's exploration: "extend capabilities to
// provide scheduling guarantees, cross-domain interrupt routing").
//
// Devices raise interrupt lines on the machine's interrupt controller;
// the isolation monitor drains and routes them to the domain holding
// the device capability (core/irq.go). Each core also has a one-shot
// timer counting retired instructions — the architectural preemption
// mechanism kernels build time slicing on.

// IRQ is one pending device interrupt.
type IRQ struct {
	Device phys.DeviceID
	// Vector distinguishes interrupt causes within one device.
	Vector uint32
}

// RaiseIRQ posts an interrupt from a device to the controller. An
// installed fault injector may eat the line (a lost interrupt).
func (m *Machine) RaiseIRQ(dev phys.DeviceID, vector uint32) {
	if fi := m.FaultInjector(); fi != nil && fi.OnRaiseIRQ(dev, vector) {
		m.Trace(trace.GlobalCore, trace.KIRQLost, 0, uint64(dev), uint64(vector), 0, 0)
		return
	}
	m.Trace(trace.GlobalCore, trace.KIRQRaise, 0, uint64(dev), uint64(vector), 0, 0)
	m.irqs = append(m.irqs, IRQ{Device: dev, Vector: vector})
}

// TakeIRQ pops the oldest pending interrupt. An installed fault
// injector may deliver a spurious interrupt ahead of the real queue.
func (m *Machine) TakeIRQ() (IRQ, bool) {
	if fi := m.FaultInjector(); fi != nil {
		if irq, ok := fi.TakeSpuriousIRQ(); ok {
			m.Trace(trace.GlobalCore, trace.KIRQSpurious, 0, uint64(irq.Device), uint64(irq.Vector), 0, 0)
			return irq, true
		}
	}
	if len(m.irqs) == 0 {
		return IRQ{}, false
	}
	irq := m.irqs[0]
	m.irqs = m.irqs[1:]
	return irq, true
}

// PendingIRQs returns the number of undelivered interrupts.
func (m *Machine) PendingIRQs() int { return len(m.irqs) }

// RaiseIRQ lets a device signal completion to its driver.
func (d *Device) RaiseIRQ(vector uint32) { d.mach.RaiseIRQ(d.ID, vector) }

// ArmTimer arms the core's one-shot timer to fire after n retired
// instructions (n <= 0 disarms).
func (c *Core) ArmTimer(n int) {
	if n <= 0 {
		c.timer = 0
		c.timerArmed = false
		return
	}
	c.timer = n
	c.timerArmed = true
}

// tickTimer advances the timer by one instruction and reports expiry.
func (c *Core) tickTimer() bool {
	if !c.timerArmed {
		return false
	}
	c.timer--
	if c.timer <= 0 {
		c.timerArmed = false
		return true
	}
	return false
}
