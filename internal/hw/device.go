package hw

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/phys"
)

// DeviceClass is a coarse PCI device category; the bench workloads use
// it to pick devices with appropriate semantics.
type DeviceClass int

// Device classes.
const (
	DevGeneric     DeviceClass = iota
	DevAccelerator             // GPU-like compute engine (Figure 2's GPU)
	DevNIC                     // network interface
	DevStorage                 // block device
)

var devClassNames = [...]string{"generic", "accelerator", "nic", "storage"}

func (c DeviceClass) String() string {
	if int(c) < len(devClassNames) {
		return devClassNames[c]
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Device is a simulated DMA-capable PCI device (or SR-IOV virtual
// function). Devices are driven by host-side driver code (oskit drivers
// or domain libraries); every DMA traverses the machine's IOMMU, so a
// device attached to a trust domain is confined exactly like a core
// running that domain — the paper's "I/O domains running on devices with
// restricted access to main memory" (§3.1).
type Device struct {
	ID    phys.DeviceID
	Name  string
	Class DeviceClass

	mach *Machine
	dmas uint64
}

// DMACount returns the number of DMA operations issued.
func (d *Device) DMACount() uint64 { return d.dmas }

// checkRange verifies every page of [a, a+n) against the IOMMU and
// charges per-page IOMMU lookup costs.
func (d *Device) checkRange(a phys.Addr, n uint64, want Perm) error {
	if n == 0 {
		return nil
	}
	first := a.Page()
	last := (a + phys.Addr(n) - 1).Page()
	for pg := first; pg <= last; pg++ {
		d.mach.Clock.Advance(d.mach.Cost.IOMMUCheck)
		if !d.mach.IOMMU.Check(d.ID, phys.Addr(pg<<phys.PageShift), want) {
			return &DMAFaultError{Device: d.ID, Addr: phys.Addr(pg << phys.PageShift), Want: want}
		}
	}
	return nil
}

// DMARead copies n bytes from physical memory at src into buf (device-
// internal buffer, host visible to the caller driving the device).
func (d *Device) DMARead(src phys.Addr, buf []byte) error {
	d.dmas++
	if err := d.checkRange(src, uint64(len(buf)), PermR); err != nil {
		return err
	}
	d.chargeCopy(uint64(len(buf)))
	return d.mach.Mem.ReadAt(src, buf)
}

// DMAWrite copies buf into physical memory at dst.
func (d *Device) DMAWrite(dst phys.Addr, buf []byte) error {
	d.dmas++
	if err := d.checkRange(dst, uint64(len(buf)), PermW); err != nil {
		return err
	}
	d.chargeCopy(uint64(len(buf)))
	return d.mach.Mem.WriteAt(dst, buf)
}

// DMACopy moves n bytes from src to dst memory-to-memory.
func (d *Device) DMACopy(src, dst phys.Addr, n uint64) error {
	d.dmas++
	if err := d.checkRange(src, n, PermR); err != nil {
		return err
	}
	if err := d.checkRange(dst, n, PermW); err != nil {
		return err
	}
	buf := make([]byte, n)
	if err := d.mach.Mem.ReadAt(src, buf); err != nil {
		return err
	}
	d.chargeCopy(n)
	return d.mach.Mem.WriteAt(dst, buf)
}

func (d *Device) chargeCopy(n uint64) {
	lines := (n + CacheLineSize - 1) / CacheLineSize
	d.mach.Clock.Advance(lines * d.mach.Cost.ZeroLine)
}

func (d *Device) String() string {
	return fmt.Sprintf("%v(%s,%v)", d.ID, d.Name, d.Class)
}
