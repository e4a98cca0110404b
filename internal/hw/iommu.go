package hw

import (
	"fmt"
	"sync"
	"sync/atomic"

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
// Context entries are behind an RWMutex (DMA checks race with the
// monitor attaching filters) and the counters are atomic.
type IOMMU struct {
	mu  sync.RWMutex
	ctx map[phys.DeviceID]AccessFilter
	// DefaultAllow admits DMA from devices with no context entry. The
	// monitor flips it once at boot, before cores run.
	DefaultAllow bool

	checks, denials atomic.Uint64
}

// NewIOMMU returns an IOMMU with no context entries. allowByDefault
// selects the commodity (true) or monitor (false) default policy.
func NewIOMMU(allowByDefault bool) *IOMMU {
	return &IOMMU{ctx: make(map[phys.DeviceID]AccessFilter), DefaultAllow: allowByDefault}
}

// Attach installs f as the context entry for dev.
func (iu *IOMMU) Attach(dev phys.DeviceID, f AccessFilter) {
	iu.mu.Lock()
	defer iu.mu.Unlock()
	iu.ctx[dev] = f
}

// ContextOf returns dev's filter, or nil if none installed.
func (iu *IOMMU) ContextOf(dev phys.DeviceID) AccessFilter {
	iu.mu.RLock()
	defer iu.mu.RUnlock()
	return iu.ctx[dev]
}

// Check reports whether device dev may access address a with permission
// want.
func (iu *IOMMU) Check(dev phys.DeviceID, a phys.Addr, want Perm) bool {
	iu.checks.Add(1)
	iu.mu.RLock()
	f, ok := iu.ctx[dev]
	allow := iu.DefaultAllow
	iu.mu.RUnlock()
	if !ok {
		if allow {
			return true
		}
		iu.denials.Add(1)
		return false
	}
	if !f.Check(a, want) {
		iu.denials.Add(1)
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
