// Package fault is the deterministic fault-injection subsystem. It
// implements hw.FaultInjector: a schedule of armed faults fires against
// the simulated hardware at exact, countable event offsets, so any
// failure an injected run produces is replayable from the pair
// (seed, schedule) alone — no wall clock, no process randomness.
//
// Determinism model. Every fault carries a countdown (After) over the
// events that match it. Core-targeted faults (machine checks, stalls)
// count that core's own memory accesses, which are totally ordered by
// the core's instruction stream. Device-targeted faults count the
// interrupt controller's raise/poll events, which are ordered by the one
// goroutine driving the machine. Randomness exists only at plan-construction time
// (FromSeed); at injection time the injector is a pure counter machine.
//
// Runtime Verification for Trustworthy Computing (PAPERS.md) motivates
// the loop: inject, let the monitor contain, re-check every isolation
// invariant, repeat.
//
// An Injector belongs to one machine's world and, like it, is used by
// one goroutine at a time; it holds no lock.
package fault

import (
	"errors"
	"fmt"

	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
)

// Kind classifies an injectable hardware fault.
type Kind uint8

// Fault kinds.
const (
	// MachineCheck aborts a matching memory access on the target core
	// with hw.TrapMachineCheck; the core itself survives.
	MachineCheck Kind = iota
	// CoreStall hard-crashes the target core mid-access: the access and
	// every later step raise hw.TrapMachineCheck until the core is
	// explicitly un-stalled.
	CoreStall
	// DropIRQ eats interrupts the target device raises (lost lines).
	DropIRQ
	// SpuriousIRQ delivers phantom interrupts for the target device
	// ahead of the controller's real queue.
	SpuriousIRQ
	// QuoteFail makes the TPM's MakeQuote return a transient error.
	QuoteFail
	// LinkDrop silently discards a matching frame pushed onto an
	// attested wire (dist.Wire.Arm). Link kinds count the wire's own
	// push events — ordered by the sender's send sequence — so they
	// obey the same pure-counter determinism as hardware kinds. The
	// Injector itself never fires them; they exist so one schedule
	// string can describe machine and network faults together.
	LinkDrop
	// LinkDup enqueues a matching frame twice: the receiver sees a
	// byte-exact replay, which the channel's sequence check must
	// reject as tampering.
	LinkDup
	// LinkReorder holds a matching frame back and releases it after
	// the next frame passes, delivering the pair out of order.
	LinkReorder
)

var kindNames = [...]string{
	MachineCheck: "mc", CoreStall: "stall", DropIRQ: "dropirq",
	SpuriousIRQ: "spurious", QuoteFail: "quote",
	LinkDrop: "drop", LinkDup: "dup", LinkReorder: "reorder",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Link reports whether k targets an attested wire rather than the
// simulated hardware. The Injector never fires link kinds; dist.Wire
// consumes them via its own Arm.
func (k Kind) Link() bool {
	return k == LinkDrop || k == LinkDup || k == LinkReorder
}

// Fault is one armed injection: fire Count times against events that
// match (Kind, Core|Device), after letting After matching events pass.
type Fault struct {
	Kind Kind
	// Core targets MachineCheck and CoreStall.
	Core phys.CoreID
	// Device targets DropIRQ and SpuriousIRQ.
	Device phys.DeviceID
	// Vector is the vector a SpuriousIRQ delivers.
	Vector uint32
	// After is how many matching events pass untouched before firing.
	After uint64
	// Count is how many matching events are affected (0 means 1).
	Count uint64
}

func (f Fault) count() uint64 {
	if f.Count == 0 {
		return 1
	}
	return f.Count
}

// Firing records one fault actually firing, for replay assertions.
type Firing struct {
	Fault Fault
	// Seq is the 1-based index of the matching event the fault hit.
	Seq uint64
	// Addr is the access address for core-targeted faults.
	Addr phys.Addr
}

func (fr Firing) String() string {
	return fmt.Sprintf("%s@%d(addr=%v)", FormatFault(fr.Fault), fr.Seq, fr.Addr)
}

// ErrQuote is the transient error an injected QuoteFail surfaces from
// the TPM.
var ErrQuote = errors.New("injected transient quote failure")

// armed is one fault plus its live counters.
type armed struct {
	f Fault
	// seen counts matching events observed so far.
	seen uint64
	// done counts events this fault has affected.
	done uint64
}

// Injector implements hw.FaultInjector over a fixed schedule; the
// determinism contract is documented on the package.
type Injector struct {
	armed []*armed
	fired []Firing
}

// NewInjector arms the given schedule.
func NewInjector(faults ...Fault) *Injector {
	in := &Injector{}
	for _, f := range faults {
		in.armed = append(in.armed, &armed{f: f})
	}
	return in
}

// Fired returns every firing so far, in firing order.
func (in *Injector) Fired() []Firing {
	return append([]Firing(nil), in.fired...)
}

// Exhausted reports whether every armed fault has fired its full count.
func (in *Injector) Exhausted() bool {
	for _, af := range in.armed {
		if af.done < af.f.count() {
			return false
		}
	}
	return true
}

// Arm installs the injector on machine m and (when non-nil) TPM t.
func (in *Injector) Arm(m *hw.Machine, t *tpm.TPM) {
	m.SetFaultInjector(in)
	if t != nil {
		t.SetQuoteHook(in.quoteHook())
	}
}

// OnAccess implements hw.FaultInjector for core-targeted faults.
func (in *Injector) OnAccess(core phys.CoreID, a phys.Addr, want hw.Perm) hw.FaultAction {
	act := hw.FaultNone
	for _, af := range in.armed {
		if (af.f.Kind != MachineCheck && af.f.Kind != CoreStall) || af.f.Core != core {
			continue
		}
		af.seen++
		if af.seen <= af.f.After || af.done >= af.f.count() {
			continue
		}
		af.done++
		in.fired = append(in.fired, Firing{Fault: af.f, Seq: af.seen, Addr: a})
		if af.f.Kind == CoreStall {
			// A stall dominates a same-event machine check: the core is
			// gone either way, and stalling is the stronger poison.
			act = hw.FaultStall
		} else if act == hw.FaultNone {
			act = hw.FaultAbort
		}
	}
	return act
}

// OnRaiseIRQ implements hw.FaultInjector for dropped interrupts.
func (in *Injector) OnRaiseIRQ(dev phys.DeviceID, vector uint32) bool {
	drop := false
	for _, af := range in.armed {
		if af.f.Kind != DropIRQ || af.f.Device != dev {
			continue
		}
		af.seen++
		if af.seen <= af.f.After || af.done >= af.f.count() {
			continue
		}
		af.done++
		in.fired = append(in.fired, Firing{Fault: af.f, Seq: af.seen})
		drop = true
	}
	return drop
}

// TakeSpuriousIRQ implements hw.FaultInjector for phantom interrupts.
// Every controller poll counts as one matching event per armed
// SpuriousIRQ fault; the first due fault delivers.
func (in *Injector) TakeSpuriousIRQ() (hw.IRQ, bool) {
	for _, af := range in.armed {
		if af.f.Kind != SpuriousIRQ {
			continue
		}
		af.seen++
		if af.seen <= af.f.After || af.done >= af.f.count() {
			continue
		}
		af.done++
		in.fired = append(in.fired, Firing{Fault: af.f, Seq: af.seen})
		return hw.IRQ{Device: af.f.Device, Vector: af.f.Vector}, true
	}
	return hw.IRQ{}, false
}

// quoteHook returns the function to install via tpm.SetQuoteHook: each
// quote attempt counts as one matching event per armed QuoteFail fault.
func (in *Injector) quoteHook() func() error {
	return func() error {
		var err error
		for _, af := range in.armed {
			if af.f.Kind != QuoteFail {
				continue
			}
			af.seen++
			if af.seen <= af.f.After || af.done >= af.f.count() {
				continue
			}
			af.done++
			in.fired = append(in.fired, Firing{Fault: af.f, Seq: af.seen})
			err = ErrQuote
		}
		return err
	}
}
