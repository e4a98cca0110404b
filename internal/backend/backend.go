// Package backend defines the interface between the isolation monitor's
// platform-independent capability model and the platform-specific
// enforcement mechanisms (§3.3, §4: "operations on capabilities are
// validated and translated into platform-specific hardware
// configurations by Tyche's backend").
//
// Two backends exist, mirroring the paper's prototypes: vtx (x86_64:
// per-domain EPT, VMCall exits, VMFUNC fast switches, IOMMU contexts)
// and pmp (RISC-V machine mode: per-core PMP reprogramming with a fixed
// entry budget). They enforce identical capability semantics; the
// cross-backend differential tests check exactly that.
//
// A backend is used by one goroutine at a time — its monitor's — and
// holds no lock.
package backend

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

// Backend programs hardware access-control state from capability state.
type Backend interface {
	// Name identifies the backend ("vtx" or "pmp").
	Name() string

	// InstallDomain creates hardware state for a new trust domain.
	InstallDomain(owner cap.OwnerID) error

	// SyncDomainRange reprograms the domain's hardware access-control
	// state on the pages of scope from the current capability space,
	// leaving every page outside scope as installed. Must be called
	// after any capability operation affecting the domain, with a scope
	// covering every page the operation can have changed for it:
	// phys.AllMemory rebuilds the whole view.
	SyncDomainRange(owner cap.OwnerID, scope phys.Region) error

	// RemoveDomain tears down the domain's hardware state.
	RemoveDomain(owner cap.OwnerID) error

	// Context returns the domain's execution context for a core,
	// creating it on first use.
	Context(owner cap.OwnerID, core phys.CoreID) (*hw.Context, error)

	// Transition switches core to the target domain's context and
	// charges the hardware cost. fast requests the VMFUNC-style switch,
	// available only between pre-registered pairs on backends that
	// support it.
	Transition(core *hw.Core, to cap.OwnerID, fast bool) error

	// RegisterFastPair authorises fast transitions between a and b on
	// core. Backends without a fast mechanism return ErrNoFastPath.
	RegisterFastPair(core phys.CoreID, a, b cap.OwnerID) error

	// SyncDeviceRange reprograms the IOMMU context of dev on the pages of
	// scope from the capability space (union of DMA-right holders'
	// memory), leaving every page outside scope as installed: the
	// backend-neutral SyncDeviceRange.
	SyncDeviceRange(dev phys.DeviceID, scope phys.Region) error

	// ExecuteCleanups performs the cleanup actions emitted by a
	// revocation: zeroing memory, flushing caches and TLBs.
	ExecuteCleanups(acts []cap.CleanupAction) error
}

// Sentinel errors.
var (
	// ErrNoFastPath reports a fast transition that is not available:
	// unregistered pair, or a backend without a VMFUNC analogue.
	ErrNoFastPath = errors.New("backend: no fast transition path")
	// ErrUnknownDomain reports an owner with no installed hardware state.
	ErrUnknownDomain = errors.New("backend: unknown domain")
)

// PMPExhaustedError reports a domain memory layout that does not fit the
// PMP entry budget — the constraint the paper highlights for the RISC-V
// backend (§4).
type PMPExhaustedError struct {
	Owner     cap.OwnerID
	Needed    int
	Available int
}

func (e *PMPExhaustedError) Error() string {
	return fmt.Sprintf("backend: domain %d needs %d PMP entries, only %d available",
		e.Owner, e.Needed, e.Available)
}

// rightsToPerm maps capability memory rights onto hardware permissions.
func rightsToPerm(r cap.Rights) hw.Perm {
	var p hw.Perm
	if r.Has(cap.RightRead) {
		p |= hw.PermR
	}
	if r.Has(cap.RightWrite) {
		p |= hw.PermW
	}
	if r.Has(cap.RightExec) {
		p |= hw.PermX
	}
	return p
}

// Segment is one contiguous run of identically permissioned memory in a
// domain's flattened view; both backends program from this form. It is
// the hardware's own extent type, so a flattened view goes to
// hw.EPT.Replace as it is.
type Segment = hw.EPTMapping

// scratch is the buffers one derivation runs in. They come from a
// package-level pool, which separate worlds on separate goroutines
// share: the one sync name a backend uses.
type scratch struct {
	grants  []cap.MemoryGrant
	events  []uint64
	segs    []Segment
	changed []Segment
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// WithSegments is the one derivation both backends and the device path
// program from: the effective memory grants of owners inside scope,
// clipped to it, with the rights in strip removed, flattened and handed
// to use. What use installs is the scope's pages only — the backends
// splice segs into the installed view (hw.Splice), so a capability
// change is derived over the range it moved and a whole view over
// phys.AllMemory. segs is pooled scratch, valid only until use returns:
// use copies what it keeps (hw.EPT.Replace and the pmp layout both do)
// and retains no part of it. changed is a second pooled buffer for what
// the rebuild writes (hw.EPT.Replace's changed extents, the pmp
// splice): the slice use leaves in it keeps its storage for the next
// derivation.
func WithSegments(space *cap.Space, strip cap.Rights, scope phys.Region, use func(segs []Segment, changed *[]Segment) error, owners ...cap.OwnerID) error {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.grants = sc.grants[:0]
	for _, o := range owners {
		sc.grants = space.AppendOwnerMemoryGrantsIn(sc.grants, o, scope)
	}
	for i := range sc.grants {
		sc.grants[i].Rights &^= strip
	}
	return use(sc.flatten(sc.grants), &sc.changed)
}

// FlattenGrants folds a domain's per-capability memory grants into
// minimal disjoint segments, OR-ing permissions where capabilities
// overlap and merging adjacent equal-permission runs. The result is the
// caller's.
func FlattenGrants(grants []cap.MemoryGrant) []Segment {
	var sc scratch
	return sc.flatten(grants)
}

// A sweep event is one word: the page-aligned address a grant opens or
// closes at, the open bit above the permission, the permission in the
// low bits. Sorting the words orders events by address, closes before
// opens at one address.
const (
	eventOpen = 1 << 3
	eventPerm = eventOpen - 1
)

// flatten sweeps grants into sc.segs, reusing sc's buffers. Grant
// regions are page-aligned (capabilities are), which leaves an
// address's low bits free for the rest of its event.
func (sc *scratch) flatten(grants []cap.MemoryGrant) []Segment {
	events := sc.events[:0]
	for _, g := range grants {
		p := rightsToPerm(g.Rights)
		if p == hw.PermNone || g.Region.Empty() {
			continue
		}
		events = append(events, uint64(g.Region.Start)|eventOpen|uint64(p), uint64(g.Region.End)|uint64(p))
	}
	slices.Sort(events)
	var counts [hw.PermRWX + 1]int // open grants per permission value
	out := sc.segs[:0]
	var prev phys.Addr
	cur := hw.PermNone
	for _, e := range events {
		at, p := phys.Addr(e).PageAlign(), e&eventPerm
		// A region that closes where an identical-permission one opens
		// continues the run: extend it rather than start a new segment.
		if at > prev && cur != hw.PermNone {
			if n := len(out); n > 0 && out[n-1].Region.End == prev && out[n-1].Perm == cur {
				out[n-1].Region.End = at
			} else {
				out = append(out, Segment{Region: phys.Region{Start: prev, End: at}, Perm: cur})
			}
		}
		prev = at
		if e&eventOpen != 0 {
			counts[p]++
		} else {
			counts[p]--
		}
		cur = hw.PermNone
		for perm, n := range counts {
			if n > 0 {
				cur |= hw.Perm(perm)
			}
		}
	}
	sc.events, sc.segs = events, out
	return out
}
