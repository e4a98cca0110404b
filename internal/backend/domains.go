package backend

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

// Domains is the table of installed domains that both backends keep,
// with S the per-domain state a backend adds (an EPT, a segment list).
//
// Concurrency contract: under the epoch scheme no monitor entry
// excludes another, so installation races removal and both race the
// transitions every core takes. Readers — Get and Domain.Context, which
// is all a Call, Return or Transition needs — take no lock: the table
// is an immutable map behind an atomic pointer and a domain's contexts
// sit in per-core atomic slots. Install and Remove are the only
// writers; they publish a copy under mu. A *Domain a reader got stays
// valid after removal: backends empty the hardware state it points at
// rather than free it, so a racing reader's view degrades to deny-all.
type Domains[S any] struct {
	cores int

	mu       sync.Mutex
	nextASID uint64
	tab      atomic.Pointer[map[cap.OwnerID]*Domain[S]]
}

// Domain is one installed domain. Owner, ASID and State are fixed at
// installation (State may synchronise contents of its own).
type Domain[S any] struct {
	Owner cap.OwnerID
	ASID  uint64
	State S

	ctxs []atomic.Pointer[hw.Context] // by core, nil until first use
}

// NewDomains returns an empty table for a machine with cores cores.
func NewDomains[S any](cores int) *Domains[S] {
	t := &Domains[S]{cores: cores, nextASID: 1}
	t.tab.Store(&map[cap.OwnerID]*Domain[S]{})
	return t
}

// Install adds owner with the next ASID.
func (t *Domains[S]) Install(owner cap.OwnerID, state S) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	tab := maps.Clone(*t.tab.Load())
	if _, ok := tab[owner]; ok {
		return fmt.Errorf("backend: domain %d already installed", owner)
	}
	tab[owner] = &Domain[S]{
		Owner: owner, ASID: t.nextASID, State: state,
		ctxs: make([]atomic.Pointer[hw.Context], t.cores),
	}
	t.nextASID++
	t.tab.Store(&tab)
	return nil
}

// Get returns owner's domain, or ErrUnknownDomain.
func (t *Domains[S]) Get(owner cap.OwnerID) (*Domain[S], error) {
	d, ok := (*t.tab.Load())[owner]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownDomain, owner)
	}
	return d, nil
}

// Remove drops owner from the table, if it is there.
func (t *Domains[S]) Remove(owner cap.OwnerID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tab := maps.Clone(*t.tab.Load())
	delete(tab, owner)
	t.tab.Store(&tab)
}

// Context returns the domain's execution context on core — the same
// one on every call — building it on first use around the two things
// the backends differ in: the filter that decides its accesses and
// whether a TLB miss pays the two-dimensional walk.
func (d *Domain[S]) Context(core phys.CoreID, filter hw.AccessFilter, usesEPT bool) (*hw.Context, error) {
	if int(core) < 0 || int(core) >= len(d.ctxs) {
		return nil, fmt.Errorf("backend: no core %v", core)
	}
	slot := &d.ctxs[core]
	if ctx := slot.Load(); ctx != nil {
		return ctx, nil
	}
	slot.CompareAndSwap(nil, &hw.Context{Owner: uint64(d.Owner), Filter: filter, UsesEPT: usesEPT, ASID: d.ASID})
	return slot.Load(), nil
}
