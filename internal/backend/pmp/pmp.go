// Package pmp implements the RISC-V machine-mode enforcement backend:
// trust domains are confined with the per-core PMP register file, which
// "only supports a fixed number of segments, which requires a careful
// memory layout of trust domains and validation by the monitor" (§4).
//
// Unlike the vtx backend's per-domain EPT, PMP state is per-core and
// must be reprogrammed on every domain transition (machine-mode trap,
// clear + rewrite entries, mret). Domain installation validates that
// the domain's flattened memory layout fits the entry budget; the C5
// experiment sweeps exactly this constraint.
package pmp

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/backend"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// segments is a domain's validated layout.
type segments struct {
	segs []backend.Segment
}

// Backend is the machine-mode PMP enforcement backend. Domains live in
// a backend.Domains table; a removed domain's PMP files have been
// cleared, so a core still holding its context sees deny-all. Every
// derivation runs in the backend's own scratch.
type Backend struct {
	mach     *hw.Machine
	space    *cap.Space
	doms     *backend.Domains[*segments]
	reserved int // entries locked for monitor self-protection per core
	scratch  backend.Scratch
}

// New returns a PMP backend over mach and space. If monitorRegion is
// non-empty, entry 0 of every core is programmed to deny it and locked —
// machine-mode self-protection, as Keystone's security monitor does.
func New(mach *hw.Machine, space *cap.Space, monitorRegion phys.Region) (*Backend, error) {
	b := &Backend{
		mach:  mach,
		space: space,
		doms:  backend.NewDomains[*segments](len(mach.Cores)),
	}
	if !monitorRegion.Empty() {
		guard := []backend.Segment{{Region: monitorRegion, Perm: hw.PermNone}}
		for _, c := range mach.Cores {
			if err := b.program(c, 0, 0, guard); err != nil {
				return nil, fmt.Errorf("pmp: reserving monitor entry: %w", err)
			}
			if err := c.PMPUnit.Lock(0); err != nil {
				return nil, fmt.Errorf("pmp: locking monitor entry: %w", err)
			}
		}
		b.reserved = 1
	}
	return b, nil
}

// Name implements backend.Backend.
func (b *Backend) Name() string { return "pmp" }

// Budget returns the PMP entries available to a domain layout on each
// core (total minus monitor-reserved).
func (b *Backend) Budget() int {
	if len(b.mach.Cores) == 0 {
		return 0
	}
	return b.mach.Cores[0].PMPUnit.NumEntries() - b.reserved
}

// InstallDomain implements backend.Backend.
func (b *Backend) InstallDomain(owner cap.OwnerID) error {
	if err := b.doms.Install(owner, &segments{}); err != nil {
		return err
	}
	return b.SyncDomainRange(owner, phys.AllMemory)
}

// SyncDomainRange implements backend.Backend: rederive the domain's
// segments on scope's pages, splice them into its layout (hw.Splice)
// and validate the spliced layout against the PMP budget. The hardware
// itself is reprogrammed lazily at transition time (PMP is per-core
// state), except on the cores running the domain now.
func (b *Backend) SyncDomainRange(owner cap.OwnerID, scope phys.Region) error {
	d, err := b.doms.Get(owner)
	if err != nil {
		return err
	}
	return backend.WithSegments(b.space, &b.scratch, 0, scope, func(segs []backend.Segment, spliced *[]backend.Segment) error {
		*spliced = hw.Splice((*spliced)[:0], d.State.segs, scope, segs)
		if need, avail := len(*spliced), b.Budget(); need > avail {
			return &backend.PMPExhaustedError{Owner: owner, Needed: need, Available: avail}
		}
		d.State.segs = append(d.State.segs[:0], *spliced...) // spliced is scratch
		// Cores currently running this domain must be reprogrammed now:
		// access may have been revoked.
		for _, c := range b.mach.Cores {
			if ctx := c.Context(); ctx != nil && ctx.Owner == uint64(owner) {
				if err := b.program(c, owner, b.reserved, d.State.segs); err != nil {
					return err
				}
			}
		}
		return nil
	}, owner)
}

// program makes segs the core's unlocked PMP contents from entry from,
// in one step (PMP.Replace). It is the one place
// a PMP write is paid for: PMPWrite and one pmp-write event per entry
// whose contents changed (a deprogrammed entry is traced with no
// region). A domain's layout was validated against the budget at sync
// time, so an error here is a programming bug.
func (b *Backend) program(core *hw.Core, owner cap.OwnerID, from int, segs []backend.Segment) error {
	var buf [hw.DefaultPMPEntries]int
	wrote, err := core.PMPUnit.Replace(from, segs, buf[:0])
	if err != nil {
		return fmt.Errorf("pmp: programming %v for domain %d: %w", core.ID(), owner, err)
	}
	b.mach.Clock.Advance(uint64(len(wrote)) * b.mach.Cost.PMPWrite)
	for _, i := range wrote {
		var s backend.Segment
		if k := i - from; k >= 0 && k < len(segs) {
			s = segs[k]
		}
		b.mach.Trace(int32(core.ID()), trace.KPMPWrite, uint64(owner), uint64(i), uint64(s.Perm), uint64(s.Region.Start), s.Region.Size())
	}
	return nil
}

// RemoveDomain implements backend.Backend.
func (b *Backend) RemoveDomain(owner cap.OwnerID) error {
	if _, err := b.doms.Get(owner); err != nil {
		return err
	}
	// Scrub the register files of cores the domain died on: PMP state
	// outlives the domain otherwise, and cleared entries (plus the
	// locked monitor guard) deny every access.
	for _, c := range b.mach.Cores {
		if ctx := c.Context(); ctx != nil && ctx.Owner == uint64(owner) {
			if err := b.program(c, owner, b.reserved, nil); err != nil {
				return err
			}
		}
	}
	b.doms.Remove(owner)
	return nil
}

// Context implements backend.Backend. The context's filter is the
// core's PMP unit itself: whatever is programmed on the core at access
// time decides, exactly like the hardware.
func (b *Backend) Context(owner cap.OwnerID, core phys.CoreID) (*hw.Context, error) {
	d, err := b.doms.Get(owner)
	if err != nil {
		return nil, err
	}
	c := b.mach.Core(core)
	if c == nil {
		return nil, fmt.Errorf("pmp: no core %v", core)
	}
	return d.Context(core, c.PMPUnit, false)
}

// Transition implements backend.Backend: a machine-mode trap that
// clears and reprograms the core's PMP entries for the target domain.
// There is no fast path — PMP has no VMFUNC analogue.
func (b *Backend) Transition(core *hw.Core, to cap.OwnerID, fast bool) error {
	if fast {
		return fmt.Errorf("%w: pmp backend has no VMFUNC analogue", backend.ErrNoFastPath)
	}
	d, err := b.doms.Get(to)
	if err != nil {
		return err
	}
	ctx, err := d.Context(core.ID(), core.PMPUnit, false)
	if err != nil {
		return err
	}
	cost := b.mach.Cost
	b.mach.Clock.Advance(cost.MTrap)
	if err := b.program(core, to, b.reserved, d.State.segs); err != nil {
		return err
	}
	b.mach.Clock.Advance(cost.MRet)
	core.InstallContext(ctx) // PMP is untagged: full TLB flush
	return nil
}

// RegisterFastPair implements backend.Backend; PMP has no fast path.
func (b *Backend) RegisterFastPair(phys.CoreID, cap.OwnerID, cap.OwnerID) error {
	return fmt.Errorf("%w: pmp backend has no VMFUNC analogue", backend.ErrNoFastPath)
}

// SyncDeviceRange implements backend.Backend. The RISC-V platform model
// has no IOMMU contexts per se; we model an equivalent bus filter so the
// capability semantics match the vtx backend (differential tests rely
// on identical accept/deny decisions).
func (b *Backend) SyncDeviceRange(dev phys.DeviceID, scope phys.Region) error {
	return backend.SyncDeviceRange(b.mach.IOMMU, b.space, &b.scratch, dev, scope)
}

// ExecuteCleanups implements backend.Backend.
func (b *Backend) ExecuteCleanups(acts []cap.CleanupAction) error {
	return backend.RunCleanups(b.mach, acts)
}
