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
package backend

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

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

	// SyncDomain reprograms the domain's hardware access-control state
	// from the current capability space. Must be called after any
	// capability operation affecting the domain.
	SyncDomain(owner cap.OwnerID) error

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

	// SyncDevice reprograms the IOMMU context of dev from the
	// capability space (union of DMA-right holders' memory).
	SyncDevice(dev phys.DeviceID) error

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

// RightsToPerm maps capability memory rights onto hardware permissions.
func RightsToPerm(r cap.Rights) hw.Perm {
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

// FlattenGrants folds a domain's per-capability memory grants into
// minimal disjoint segments, OR-ing permissions where capabilities
// overlap and merging adjacent equal-permission runs.
func FlattenGrants(grants []cap.MemoryGrant) []Segment {
	if len(grants) == 0 {
		return nil
	}
	type ev struct {
		at    phys.Addr
		perm  hw.Perm
		delta int // +1 opens a grant, -1 closes one
	}
	events := make([]ev, 0, 2*len(grants))
	for _, g := range grants {
		p := RightsToPerm(g.Rights)
		if p == hw.PermNone || g.Region.Empty() {
			continue
		}
		events = append(events, ev{g.Region.Start, p, +1}, ev{g.Region.End, p, -1})
	}
	// Sweep with permission multiset; close before open at equal points.
	slices.SortFunc(events, func(a, b ev) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.delta, b.delta)
	})
	var counts [hw.PermRWX + 1]int // open grants per permission value
	var out []Segment
	var prev phys.Addr
	cur := hw.PermNone
	for _, e := range events {
		// A region that closes where an identical-permission one opens
		// continues the run: extend it rather than start a new segment.
		if e.at > prev && cur != hw.PermNone {
			if n := len(out); n > 0 && out[n-1].Region.End == prev && out[n-1].Perm == cur {
				out[n-1].Region.End = e.at
			} else {
				out = append(out, Segment{Region: phys.Region{Start: prev, End: e.at}, Perm: cur})
			}
		}
		prev = e.at
		counts[e.perm] += e.delta
		cur = hw.PermNone
		for perm, n := range counts {
			if n > 0 {
				cur |= hw.Perm(perm)
			}
		}
	}
	return out
}
