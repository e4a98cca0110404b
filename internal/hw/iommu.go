package hw

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/phys"
)

// IOMMU mediates device DMA. Each device may be attached to an access
// filter (its "context entry"); devices without a context fall back to
// the DefaultAllow policy.
//
// Commodity machines ship with the permissive default (any device can
// DMA anywhere — the classic DMA attack); the isolation monitor boots
// the IOMMU into deny-by-default and attaches per-device filters derived
// from device capabilities (§3.3: "devices can be partitioned using
// SR-IOV and isolated using I/O-MMUs").
type IOMMU struct {
	ctx map[phys.DeviceID]AccessFilter
	// DefaultAllow admits DMA from devices with no context entry. The
	// monitor flips it once at boot.
	DefaultAllow bool

	checks, denials uint64
}

// NewIOMMU returns an IOMMU with no context entries. allowByDefault
// selects the commodity (true) or monitor (false) default policy.
func NewIOMMU(allowByDefault bool) *IOMMU {
	return &IOMMU{ctx: make(map[phys.DeviceID]AccessFilter), DefaultAllow: allowByDefault}
}

// Attach installs f as the context entry for dev.
func (iu *IOMMU) Attach(dev phys.DeviceID, f AccessFilter) {
	iu.ctx[dev] = f
}

// ContextOf returns dev's filter, or nil if none installed.
func (iu *IOMMU) ContextOf(dev phys.DeviceID) AccessFilter {
	return iu.ctx[dev]
}

// Check reports whether device dev may access address a with permission
// want.
func (iu *IOMMU) Check(dev phys.DeviceID, a phys.Addr, want Perm) bool {
	iu.checks++
	f, ok := iu.ctx[dev]
	if !ok {
		if iu.DefaultAllow {
			return true
		}
		iu.denials++
		return false
	}
	if !f.Check(a, want) {
		iu.denials++
		return false
	}
	return true
}

// DMAFaultError reports a DMA access denied by the IOMMU.
type DMAFaultError struct {
	Device phys.DeviceID
	Addr   phys.Addr
	Want   Perm
}

func (e *DMAFaultError) Error() string {
	return fmt.Sprintf("hw: iommu denied %v %v access at %v", e.Device, e.Want, e.Addr)
}
