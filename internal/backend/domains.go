package backend

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

// Domains is the table of installed domains that both backends keep,
// with S the per-domain state a backend adds (an EPT, a segment list).
// A *Domain stays valid after removal: backends empty the hardware
// state it points at rather than free it, so a context still installed
// on a core degrades to deny-all.
type Domains[S any] struct {
	cores    int
	nextASID uint64
	tab      map[cap.OwnerID]*Domain[S]
}

// Domain is one installed domain. Owner, ASID and State are fixed at
// installation.
type Domain[S any] struct {
	Owner cap.OwnerID
	ASID  uint64
	State S

	ctxs []*hw.Context // by core, nil until first use
}

// NewDomains returns an empty table for a machine with cores cores.
func NewDomains[S any](cores int) *Domains[S] {
	return &Domains[S]{cores: cores, nextASID: 1, tab: make(map[cap.OwnerID]*Domain[S])}
}

// Install adds owner with the next ASID.
func (t *Domains[S]) Install(owner cap.OwnerID, state S) error {
	if _, ok := t.tab[owner]; ok {
		return fmt.Errorf("backend: domain %d already installed", owner)
	}
	t.tab[owner] = &Domain[S]{
		Owner: owner, ASID: t.nextASID, State: state,
		ctxs: make([]*hw.Context, t.cores),
	}
	t.nextASID++
	return nil
}

// Get returns owner's domain, or ErrUnknownDomain.
func (t *Domains[S]) Get(owner cap.OwnerID) (*Domain[S], error) {
	d, ok := t.tab[owner]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownDomain, owner)
	}
	return d, nil
}

// Remove drops owner from the table, if it is there.
func (t *Domains[S]) Remove(owner cap.OwnerID) { delete(t.tab, owner) }

// Context returns the domain's execution context on core — the same
// one on every call — building it on first use around the two things
// the backends differ in: the filter that decides its accesses and
// whether a TLB miss pays the two-dimensional walk.
func (d *Domain[S]) Context(core phys.CoreID, filter hw.AccessFilter, usesEPT bool) (*hw.Context, error) {
	if int(core) < 0 || int(core) >= len(d.ctxs) {
		return nil, fmt.Errorf("backend: no core %v", core)
	}
	if d.ctxs[core] == nil {
		d.ctxs[core] = &hw.Context{Owner: uint64(d.Owner), Filter: filter, UsesEPT: usesEPT, ASID: d.ASID}
	}
	return d.ctxs[core], nil
}
