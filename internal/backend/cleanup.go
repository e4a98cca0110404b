package backend

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

// SyncDeviceRange reprograms dev's IOMMU context on the pages of scope
// from capability state: the union of the effective memory (minus
// execute, meaningless on the bus) of every domain holding DMA rights on
// the device, spliced into the installed filter (hw.EPT.Replace) as a
// domain's view is, every page outside scope left as installed.
// Confining a device therefore means granting its DMA capability to a
// narrow I/O domain (Figure 2's GPU pattern). A device with no filter of
// its own yet gets a whole new one, attached once; every later resync
// edits that filter in place. It is the device path of both backends.
func SyncDeviceRange(iu *hw.IOMMU, space *cap.Space, dev phys.DeviceID, scope phys.Region) error {
	filter, installed := iu.ContextOf(dev).(*hw.EPT)
	if !installed {
		filter, scope = hw.NewEPT(), phys.AllMemory
	}
	// One flatten over every holder's grants: the sweep ORs overlapping
	// permissions, which is the union across holders.
	program := func(segs []Segment, changed *[]Segment) (err error) {
		*changed, err = filter.Replace(scope, segs, *changed)
		return err
	}
	var buf [8]cap.OwnerID // a device rarely has more DMA holders
	if err := WithSegments(space, cap.RightExec, scope, program, space.AppendDeviceDMAHolders(buf[:0], dev)...); err != nil {
		return fmt.Errorf("backend: device %v filter: %w", dev, err)
	}
	if !installed {
		iu.Attach(dev, filter)
	}
	return nil
}

// RunCleanups executes revocation cleanup actions on the machine: the
// guaranteed "clean-up" operations of §3.2. Both backends share this
// logic — zeroing and flushes are architecture-neutral in the model.
//
// Cache flushes hit every core. A TLB flush is a shootdown round for
// the owner of the revoked capability — the domain that lost access —
// so it interrupts only the cores that loaded one of that owner's
// contexts since their last whole flush: no other core can hold a
// translation of what it lost.
func RunCleanups(m *hw.Machine, acts []cap.CleanupAction) error {
	for _, a := range acts {
		if a.Cleanup == cap.CleanNone {
			continue
		}
		if a.Resource.Kind == cap.ResMemory && a.Cleanup&cap.CleanZero != 0 {
			r := a.Resource.Mem
			if err := m.Mem.Zero(r); err != nil {
				return fmt.Errorf("backend: zeroing %v: %w", r, err)
			}
			lines := r.Size() / hw.CacheLineSize
			m.Clock.Advance(lines * m.Cost.ZeroLine)
		}
		if a.Cleanup&cap.CleanFlushCache != 0 {
			for _, c := range m.Cores {
				flushed := c.CacheUnit().Flush()
				m.Clock.Advance(flushed * m.Cost.CacheFlushLine)
			}
		}
		if a.Cleanup&cap.CleanFlushTLB != 0 {
			if a.Resource.Kind == cap.ResMemory {
				m.ShootdownRegion(a.Resource.Mem, uint64(a.Owner))
			} else {
				m.ShootdownAll(uint64(a.Owner))
			}
		}
	}
	return nil
}
