// Package vtx implements the x86_64 enforcement backend: per-domain
// second-level page tables (EPT) programmed from capability state,
// VMCall-style exits into the monitor, VMFUNC-style fast transitions
// between pre-registered domain pairs, and IOMMU context entries for
// device confinement (§3.3, §4: "On Intel x86_64, Tyche ... isolates
// domains with Intel VT-x and I/O-MMUs", "fast (100 cycles) domain
// transitions using VMFUNC").
package vtx

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/backend"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// Backend is the VT-x enforcement backend. A domain's state is its EPT,
// kept in the shared lock-free domain table (backend.Domains carries
// the concurrency contract); RemoveDomain empties the EPT rather than
// freeing it, so a core that died holding one of the domain's contexts
// sees deny-all, never a dangling table. The registered fast pairs live
// in each core's VMFUNC lists (hw.Core) and nowhere else.
type Backend struct {
	mach  *hw.Machine
	space *cap.Space
	doms  *backend.Domains[*hw.EPT]
}

// New returns a VT-x backend over mach and space.
func New(mach *hw.Machine, space *cap.Space) *Backend {
	return &Backend{
		mach:  mach,
		space: space,
		doms:  backend.NewDomains[*hw.EPT](len(mach.Cores)),
	}
}

// Name implements backend.Backend.
func (b *Backend) Name() string { return "vtx" }

// InstallDomain implements backend.Backend.
func (b *Backend) InstallDomain(owner cap.OwnerID) error {
	if err := b.doms.Install(owner, hw.NewEPT()); err != nil {
		return err
	}
	return b.SyncDomain(owner)
}

// SyncDomain implements backend.Backend: rebuild the domain's EPT from
// its current effective capabilities and publish it in one step, so a
// core running the domain never sees a partly programmed table. Only
// what the rebuild changed is paid for: EPTUpdatePage per changed page
// and one ept-map per changed extent (PermNone for one unmapped), so a
// view that did not change costs nothing and emits nothing.
func (b *Backend) SyncDomain(owner cap.OwnerID) error {
	d, err := b.doms.Get(owner)
	if err != nil {
		return err
	}
	return backend.WithSegments(b.space, 0, func(segs []backend.Segment, changed *[]backend.Segment) (err error) {
		if *changed, err = d.State.Replace(segs, *changed); err != nil {
			return fmt.Errorf("vtx: syncing domain %d: %w", owner, err)
		}
		var pages uint64
		for _, c := range *changed {
			pages += c.Region.Pages()
			b.mach.Trace(trace.GlobalCore, trace.KEPTMap, uint64(owner), 0, uint64(c.Perm), uint64(c.Region.Start), c.Region.Size())
		}
		b.mach.Clock.Advance(pages * b.mach.Cost.EPTUpdatePage)
		return nil
	}, owner)
}

// RemoveDomain implements backend.Backend.
func (b *Backend) RemoveDomain(owner cap.OwnerID) error {
	d, err := b.doms.Get(owner)
	if err != nil {
		return err
	}
	// Empty the EPT before dropping the state: a core that still has
	// one of the domain's contexts installed (it died mid-run) keeps a
	// pointer to this table, and an empty table denies every access.
	d.State.Clear()
	b.mach.Trace(trace.GlobalCore, trace.KEPTClear, uint64(owner), 0, 0, 0, 0)
	b.doms.Remove(owner)
	for _, cpu := range b.mach.Cores {
		cpu.ClearVMFuncEntry(uint64(owner))
	}
	return nil
}

// Context implements backend.Backend.
func (b *Backend) Context(owner cap.OwnerID, core phys.CoreID) (*hw.Context, error) {
	d, err := b.doms.Get(owner)
	if err != nil {
		return nil, err
	}
	return d.Context(core, d.State, true)
}

// Transition implements backend.Backend. The slow path models a full
// VM exit + entry; the fast path models VMFUNC(0) switching the EPT
// pointer from the installed domain's pre-registered list without
// exiting — the lookup the guest instruction makes.
func (b *Backend) Transition(core *hw.Core, to cap.OwnerID, fast bool) error {
	cost := b.mach.Cost
	if fast {
		ctx, ok := core.VMFuncEntry(uint64(to))
		if !ok {
			var from uint64
			if cur := core.Context(); cur != nil {
				from = cur.Owner
			}
			return fmt.Errorf("%w: %d->%d on %v", backend.ErrNoFastPath, from, to, core.ID())
		}
		b.mach.Clock.Advance(cost.VMFunc)
		core.SwitchContextTagged(ctx)
		return nil
	}
	ctx, err := b.Context(to, core.ID())
	if err != nil {
		return err
	}
	b.mach.Clock.Advance(cost.VMExit + cost.VMEntry)
	core.InstallContext(ctx)
	return nil
}

// RegisterFastPair implements backend.Backend: each domain's context
// goes into the other's VMFUNC list on the core (indexed by domain ID),
// which authorises monitor-driven fast transitions between the two and
// enables the *guest-level* VMFUNC instruction: code on a page mapped
// in both views can switch without any monitor involvement — the Hodor
// pattern §4.1 cites for its 100-cycle figure. Neither domain gains a
// way into any other pair's views.
func (b *Backend) RegisterFastPair(core phys.CoreID, a, bID cap.OwnerID) error {
	ctxA, err := b.Context(a, core)
	if err != nil {
		return err
	}
	ctxB, err := b.Context(bID, core)
	if err != nil {
		return err
	}
	cpu := b.mach.Cores[core] // Context checked the index
	cpu.SetVMFuncEntry(uint64(bID), uint64(a), ctxA)
	cpu.SetVMFuncEntry(uint64(a), uint64(bID), ctxB)
	return nil
}

// SyncDevice implements backend.Backend: program the device's IOMMU
// context entry from capability state.
func (b *Backend) SyncDevice(dev phys.DeviceID) error {
	filter, err := backend.BuildDeviceFilter(b.space, dev)
	if err != nil {
		return err
	}
	b.mach.IOMMU.Attach(dev, filter)
	return nil
}

// ExecuteCleanups implements backend.Backend: zero revoked memory, flush
// caches, and shoot down TLBs as each action's policy demands.
func (b *Backend) ExecuteCleanups(acts []cap.CleanupAction) error {
	return backend.RunCleanups(b.mach, acts)
}
