package cap

import (
	"slices"

	"github.com/tyche-sim/tyche/internal/phys"
)

// The queries below are what the tests read the space through beside its
// product API: reference twins (RefCountAt against RefCounts'
// sweep-line) and inspection of one node, owner or seal. Each takes the
// space's lock like a product query, so the concurrency tests can race
// them against mutations.

// RefCountAt returns the number of distinct owners with effective access
// at address a: the brute-force twin of RefCounts.
func (s *Space) RefCountAt(a phys.Addr) int {
	owners := make(map[OwnerID]bool)
	for _, n := range s.nodes {
		if effectiveEnd(n, a) > a {
			owners[n.owner] = true
		}
	}
	return len(owners)
}

// Sealed reports whether owner is sealed.
func (s *Space) Sealed(owner OwnerID) bool {
	return s.sealed[owner]
}

// Node returns a snapshot of the capability id.
func (s *Space) Node(id NodeID) (Info, error) {
	n, err := s.get(id)
	if err != nil {
		return Info{}, err
	}
	return s.info(n), nil
}

// EffectiveRegions returns the node's effective memory regions.
func (s *Space) EffectiveRegions(id NodeID) ([]phys.Region, error) {
	n, err := s.get(id)
	if err != nil {
		return nil, err
	}
	return appendEffective(nil, n), nil
}

// OwnerMemory returns the union of owner's effective memory regions that
// carry at least the rights in want (normalized).
func (s *Space) OwnerMemory(owner OwnerID, want Rights) []phys.Region {
	var regs []phys.Region
	for _, n := range s.owned[owner] {
		if n.rights.Has(want) {
			regs = appendEffective(regs, n)
		}
	}
	return phys.NormalizeRegions(regs)
}

// Owners returns every owner holding at least one capability, sorted.
func (s *Space) Owners() []OwnerID {
	out := make([]OwnerID, 0, len(s.owned)) // owned holds no empty list
	for o := range s.owned {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
}
