package core

import (
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

// Pre-validated transition cache (the VMFUNC discipline, §4.1: "fast
// (100 cycles) domain transitions using VMFUNC"). A mediated Call/Return
// normally revalidates the peer on every transfer and pays the full
// exit/entry round trip through the backend. The cache caches that
// *validation*, never the transfer: after a validated call the pair is
// registered with the backend as a fast pair and the validated facts
// (entry point, privilege ring) are remembered per core, stamped with
// two generation counters:
//
//   - the capability-space generation (bumped by every share, grant,
//     revoke, and seal — anything that could change who may run where),
//   - the peer domain's config generation (bumped by entry-point,
//     entry-ring, and seal mutations, which do not touch the space).
//
// Call and Return (transition.go) each have one body. With the cache on
// they ask tcLookup for the facts first: a hit — both stamps still
// match and the peer is still live — skips the validation and asks the
// backend for its fast path (VMFunc cost); anything else is a counted
// miss, the body validates afresh, takes the full round trip, and a
// call refills. Correctness never depends on explicit invalidation — a
// revocation anywhere bumps the space generation and every cached
// transition in the system goes stale at once. Entries live in the
// per-core coreSched under its mutex, so the cache adds no cross-core
// contention to the transition path.
//
// The cache is strictly opt-in (SetTransitionCache) and off costs one
// atomic load per transfer. It stays opt-in for an isolation reason, not
// a performance one: a fill puts both contexts into the core's
// guest-level VMFUNC list (vtx.RegisterFastPair), so a domain can
// thereafter re-enter any domain it once called without the monitor,
// and no generation bump takes that back.
// TestTransitionCacheWidensVMFUNCList pins the fact; ROADMAP item 6
// owns the argument that would let the cache become the default.

// tcKey identifies one cached direction of a switch pair on a core.
type tcKey struct {
	from, to DomainID
}

// tcEntry is one pre-validated transition: the facts checked at fill
// time plus the generation stamps that bound their validity.
type tcEntry struct {
	entry  phys.Addr
	ring   hw.Ring
	capGen uint64
	cfgGen uint64
	// retOnly entries authorise only the return direction (restoring a
	// saved context); they carry no entry point.
	retOnly bool
}

// SetTransitionCache toggles the pre-validated transition cache. Both
// edges clear every per-core cache so stale entries from a previous
// enable can never be consulted.
func (m *Monitor) SetTransitionCache(on bool) {
	m.tcOn.Store(on)
	for _, sc := range m.sched {
		sc.mu.Lock()
		sc.tcache = nil
		sc.mu.Unlock()
	}
}

// tcLookup asks core's cache (sc.mu held, cache on) whether the switch
// from → to is pre-validated. It hits iff an entry exists — one with an
// entry point if the switch is a call — both generation stamps still
// match and the peer is live; the caller may then skip validation and
// take the backend's fast path. Anything else is a counted miss and the
// caller validates afresh.
func (m *Monitor) tcLookup(sc *coreSched, from, to DomainID, call bool) (tcEntry, bool) {
	e, ok := sc.tcache[tcKey{from: from, to: to}]
	if ok && !(call && e.retOnly) {
		if d, ok := m.tab.Load().doms[to]; ok && d.State() != StateDead &&
			e.capGen == m.space.Generation() && e.cfgGen == d.cfgGen.Load() {
			return e, true
		}
	}
	m.stats.tcMisses.Add(1)
	return tcEntry{}, false
}

// tcFill caches a just-validated call pair: the backend registers the
// fast pair (both contexts exist — the caller was saved into, the
// target was just entered), and both directions are stamped with the
// current generations. Backends without a fast path (PMP) refuse the
// registration and nothing is cached — every switch stays a counted
// miss. Caller is inside a reader entry, holds sc.mu, and has the cache
// on.
func (m *Monitor) tcFill(sc *coreSched, core phys.CoreID, cur, target DomainID, v tcEntry) {
	if err := m.bk.RegisterFastPair(core, cap.OwnerID(cur), cap.OwnerID(target)); err != nil {
		return
	}
	if sc.tcache == nil {
		sc.tcache = make(map[tcKey]tcEntry)
	}
	doms := m.tab.Load().doms
	gen := m.space.Generation()
	v.capGen, v.cfgGen = gen, doms[target].cfgGen.Load()
	sc.tcache[tcKey{from: cur, to: target}] = v
	// The reverse direction authorises the paired Return: no entry point
	// (a return restores the saved context), stamped against the caller.
	if cd, ok := doms[cur]; ok {
		rk := tcKey{from: target, to: cur}
		// Refresh (or create) the reverse stamp, but never downgrade a
		// full call entry for that direction to return-only.
		if prev, exists := sc.tcache[rk]; !exists || prev.retOnly {
			sc.tcache[rk] = tcEntry{
				capGen:  gen,
				cfgGen:  cd.cfgGen.Load(),
				retOnly: true,
			}
		}
	}
}
