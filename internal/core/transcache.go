package core

import (
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// Pre-validated transition cache (the VMFUNC discipline, §4.1: "fast
// (100 cycles) domain transitions using VMFUNC"). A mediated Call/Return
// normally revalidates the target on every transfer and pays the full
// exit/entry round trip through the backend. The cache moves that
// validation to fill time: after a successful slow call the pair is
// registered with the backend as a fast pair and the validated facts
// (entry point, privilege ring) are remembered per core, stamped with
// two generation counters:
//
//   - the capability-space generation (bumped by every share, grant,
//     revoke, and seal — anything that could change who may run where),
//   - the target domain's config generation (bumped by entry-point,
//     entry-ring, and seal mutations, which do not touch the space).
//
// A repeat switch hits the cache only if both stamps still match and
// the target is still live; then the monitor performs the transfer on
// the backend's fast path (VMFunc cost) with no revalidation. Any
// stamp mismatch is a miss: the slow path runs, revalidates, and
// refreshes the cache. Correctness never depends on explicit
// invalidation — a revocation anywhere bumps the space generation and
// every cached transition in the system goes stale at once.
//
// The cache is strictly opt-in (SetTransitionCache); default-off runs
// are byte-for-byte identical to pre-cache builds. Entries live in the
// per-core coreSched under its mutex, so the cache adds no cross-core
// contention to the transition path.

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

// cachedCall attempts the pre-validated fast path for call(). It
// returns done=true when the transfer fully happened (err is then the
// transfer's result); done=false sends the caller to the slow path,
// with the miss already counted. Caller is inside a reader entry.
func (m *Monitor) cachedCall(core phys.CoreID, target DomainID) (done bool, err error) {
	sc := m.sched[core]
	sc.mu.Lock()
	defer sc.mu.Unlock()
	cur, ok := m.currentDomain(core, sc)
	if !ok {
		return false, nil // slow path reports ErrNotRunning
	}
	e, ok := sc.tcache[tcKey{from: cur, to: target}]
	if !ok || e.retOnly {
		m.stats.tcMisses.Add(1)
		return false, nil
	}
	td, ok := m.tab.Load().doms[target]
	if !ok || td.State() == StateDead ||
		e.capGen != m.space.Generation() || e.cfgGen != td.cfgGen.Load() {
		m.stats.tcMisses.Add(1)
		return false, nil
	}
	c := m.mach.Core(core)
	curCtx, cerr := m.bk.Context(cap.OwnerID(cur), core)
	if cerr != nil {
		m.stats.tcMisses.Add(1)
		return false, nil
	}
	c.SaveInto(curCtx)
	var args [6]uint64
	copy(args[:], c.Regs[:6])
	if terr := m.bk.Transition(c, cap.OwnerID(target), true); terr != nil {
		// No backend fast pair (or it was dropped): slow path revalidates
		// and refills. The context save above is idempotent — the slow
		// path saves the same unchanged registers again.
		m.stats.tcMisses.Add(1)
		return false, nil
	}
	c.Regs = [hw.NumRegs]uint64{}
	copy(c.Regs[:6], args[:])
	c.PC = e.entry
	c.Ring = e.ring
	sc.frames = append(sc.frames, cur)
	sc.cur, sc.hasCur = target, true
	m.stats.transitions.Add(1)
	m.stats.tcHits.Add(1)
	m.emitCore(core, trace.KTransition, target, uint64(cur), 0, 0, trace.TransCall)
	return true, nil
}

// cachedReturn attempts the pre-validated fast path for ret(). Caller
// is inside a reader entry.
func (m *Monitor) cachedReturn(core phys.CoreID) (done bool, err error) {
	sc := m.sched[core]
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if len(sc.frames) == 0 {
		return false, nil // slow path reports ErrCallDepth
	}
	caller := sc.frames[len(sc.frames)-1]
	e, ok := sc.tcache[tcKey{from: sc.cur, to: caller}]
	if !ok {
		m.stats.tcMisses.Add(1)
		return false, nil
	}
	cd, ok := m.tab.Load().doms[caller]
	if !ok || cd.State() == StateDead ||
		e.capGen != m.space.Generation() || e.cfgGen != cd.cfgGen.Load() {
		m.stats.tcMisses.Add(1)
		return false, nil
	}
	c := m.mach.Core(core)
	callerCtx, cerr := m.bk.Context(cap.OwnerID(caller), core)
	if cerr != nil {
		m.stats.tcMisses.Add(1)
		return false, nil
	}
	ret0, ret1 := c.Regs[0], c.Regs[1]
	if terr := m.bk.Transition(c, cap.OwnerID(caller), true); terr != nil {
		m.stats.tcMisses.Add(1)
		return false, nil
	}
	sc.frames = sc.frames[:len(sc.frames)-1]
	c.RestoreFrom(callerCtx)
	c.Regs[0], c.Regs[1] = ret0, ret1
	returning := sc.cur
	sc.cur, sc.hasCur = caller, true
	m.stats.transitions.Add(1)
	m.stats.tcHits.Add(1)
	m.emitCore(core, trace.KTransition, caller, uint64(returning), 0, 0, trace.TransReturn)
	return true, nil
}

// tcFill caches a just-validated call pair: the backend registers the
// fast pair (both contexts exist — the caller was saved into, the
// target was just entered), and both directions are stamped with the
// current generations. Backends without a fast path (PMP) refuse the
// registration and nothing is cached — every switch stays a counted
// miss. Caller is inside a reader entry and holds sc.mu.
func (m *Monitor) tcFill(sc *coreSched, core phys.CoreID, cur, target DomainID, td *Domain, entry phys.Addr, ring hw.Ring) {
	if !m.tcOn.Load() {
		return
	}
	if err := m.bk.RegisterFastPair(core, cap.OwnerID(cur), cap.OwnerID(target)); err != nil {
		return
	}
	if sc.tcache == nil {
		sc.tcache = make(map[tcKey]tcEntry)
	}
	gen := m.space.Generation()
	sc.tcache[tcKey{from: cur, to: target}] = tcEntry{
		entry:  entry,
		ring:   ring,
		capGen: gen,
		cfgGen: td.cfgGen.Load(),
	}
	// The reverse direction authorises the paired Return: no entry point
	// (a return restores the saved context), stamped against the caller.
	if cd, ok := m.tab.Load().doms[cur]; ok {
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
