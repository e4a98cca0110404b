package core

// Fault containment. When the hardware reports a machine check — an
// injected fault in the simulator, broken silicon or a crashed domain
// in real life — the monitor's job is Dorami-style blast-radius
// control: destroy the victim domain completely (capability subtree,
// hardware filters, TLB entries, memory contents, encryption key) while
// every other domain keeps running. The path reuses the capability
// engine's cascading revocation and adds a forced scrub: containment
// cannot trust the cleanup policies a crashed domain chose for itself.
//
// Every kill — KillDomain, ForceKill, ForceKillAll, DepartKill and
// containFault — is a destructive-family entry (revMu, epoch.go) and
// follows the epoch discipline: publish the death (atomic state store),
// then one reclaim step: synchronize (wait out every reader that
// validated liveness before the publish), then the irreversible
// teardown — detach, forced scrub, the revocation's own retire
// (cleanups, release, resync), backend removal, key erase. Readers emit
// their trace events before unpinning and KKill
// is emitted after the grace period, so the scrub-before-kill and
// dead-domain-silence trace invariants hold.

import (
	"slices"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// ForceKill destroys a domain with monitor authority: no caller
// authorization, cleanup policies overridden by a full scrub of the
// domain's exclusive memory. It is the containment entry point RunCore
// uses on machine checks, exposed for embedders (watchdogs, operators)
// that detect a wedged domain out-of-band. The initial domain is not
// force-killable — it is the platform's root workload; faults on it
// park the faulting core instead (see containFault).
func (m *Monitor) ForceKill(id DomainID) error {
	_, err := m.forceDestroy(false, id)
	return err
}

// ForceKillAll force-kills a batch of domains under ONE destructive-
// family entry with ONE shared grace period covering every death — the
// kill-storm path. Each victim is validated and its death published in
// argument order; a single epoch synchronization then covers all the
// publishes (the grace combiner counts the folded-in requests in
// EpochStats.CombinedSyncs), and the irreversible reclaims — detach,
// forced scrub, cleanups, resync, key erase — run sequentially in the
// same order. Victims that fail validation (dead, unknown, or the
// initial domain) are skipped; the first such error is returned
// alongside the number actually killed.
func (m *Monitor) ForceKillAll(ids ...DomainID) (int, error) {
	return m.forceDestroy(false, ids...)
}

// DepartKill destroys a domain on migration departure: the source-side
// crypto-erase of an attested live migration (migrate.go). It is
// ForceKill with monitor authority plus the departure contract — the
// domain's snapshot has been restored elsewhere, so the local copy's
// exclusive memory MUST be scrubbed and its encryption key dropped
// before the kill completes, or two plaintext instances of a
// confidential workload exist at once. The scrub-before-kill trace
// invariant audits exactly that: every planned region must be scrubbed
// and shot down before the KKill closes the destruction (the
// migratebug mutation elides the erase and both checkers must flag
// it — see TestMigrateMutationOracle).
func (m *Monitor) DepartKill(id DomainID) error {
	_, err := m.forceDestroy(true, id)
	return err
}

// forceDestroy is the one monitor-authority kill driver behind
// ForceKill, ForceKillAll and DepartKill (with depart): it validates and
// publishes each victim in order, then runs the shared reclaim step.
func (m *Monitor) forceDestroy(depart bool, ids ...DomainID) (int, error) {
	m.denter()
	defer m.dexit()
	var buf [1]destroyTicket // the single-victim kills
	ticks := buf[:0]
	var firstErr error
	for _, id := range ids {
		d, err := m.liveDomain(id)
		if err == nil && id == InitialDomain {
			err = m.deny("the initial domain cannot be force-killed or depart")
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ticks = append(ticks, m.forcePublish(d, depart))
	}
	if err := m.reclaim(ticks...); firstErr == nil {
		firstErr = err
	}
	return len(ticks), firstErr
}

// forcePublish publishes a monitor-authority kill of d: counted, traced
// as KForceKill, and reclaimed with the forced scrub.
func (m *Monitor) forcePublish(d *Domain, depart bool) destroyTicket {
	m.stats.forcedKills.Add(1)
	m.emit(trace.KForceKill, d.id, 0, 0, 0, 0)
	t := m.destroyPublish(d)
	t.scrub, t.depart = true, depart
	return t
}

// destroyTicket is a published-but-not-reclaimed domain death: the
// handle destroyPublish returns and destroyReclaim consumes, with a
// grace period in between.
type destroyTicket struct {
	d   *Domain
	tok uint64
	// scrub marks a monitor-authority kill: the domain's exclusive
	// memory is zeroed and shot down whatever its cleanup policies say.
	scrub bool
	// depart marks a migration-departure kill (DepartKill): the path the
	// migratebug mutation elides the crypto-erase on.
	depart bool
}

// reclaim is every kill's reclaim step (destructive-family entry held):
// ONE grace period covering all the published deaths — a single kill or
// a storm — then each victim's irreversible tail in publish order. It
// returns the first error; every tail runs regardless.
func (m *Monitor) reclaim(ticks ...destroyTicket) error {
	if len(ticks) == 0 {
		return nil
	}
	m.ep.synchronize(len(ticks))
	var firstErr error
	for _, t := range ticks {
		if err := m.destroyReclaim(t); firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// destroyPublish runs the reversible-at-no-point prefix of a kill: the
// ring teardown and the absorbing death store. After it returns every
// new entry fails the victim's liveness check; nothing irreversible
// has happened yet, so any number of publishes may stack up before one
// grace period covers them all.
func (m *Monitor) destroyPublish(d *Domain) destroyTicket {
	tok := m.opTok.Add(1)
	m.emit(trace.KOpBegin, d.id, trace.OpKill, tok, 0, 0)
	// Drop and scrub the dying domain's submission ring first: the
	// teardown revalidates the owner's access over the ring footprint
	// (skipping the header scrub if the pages were granted away), which
	// only answers correctly while the owner is still live and holds its
	// capabilities. Descriptors a dying domain managed to enqueue are
	// never executed — dead-domain silence covers queued work, not just
	// running work. A ring the victim re-registers between here and the
	// death publish is dropped unexecuted by the next drain's dead-owner
	// check.
	m.ringTeardownLocked(d.id)
	// Publish: every entry from here on fails the liveness check. The
	// store is absorbing — a concurrent seal cannot resurrect the state.
	d.setState(StateDead)
	return destroyTicket{d: d, tok: tok}
}

// destroyReclaim runs the irreversible tail of a kill. The caller must
// have waited out a grace period since destroyPublish:
// no delegation can still add to the victim's subtree, no copy or
// dispatch relies on its memory, and every trace event such entries
// emit has its sequence number — before the KKill below.
func (m *Monitor) destroyReclaim(t destroyTicket) error {
	d := t.d
	defer m.emit(trace.KOpEnd, d.id, trace.OpKill, t.tok, 0, 0)
	owner := cap.OwnerID(d.id)
	var scrubRegions []phys.Region
	if t.scrub {
		// Exclusive regions are computed post-quiesce (no delegation in
		// flight can change them now) and before the detach destroys the
		// ownership records. Shared regions are left intact — a surviving
		// co-owner still uses them.
		for _, rc := range m.space.RefCounts() {
			if rc.Count == 1 && len(rc.Owners) == 1 && rc.Owners[0] == owner {
				scrubRegions = append(scrubRegions, rc.Region)
			}
		}
		scrubRegions = phys.NormalizeRegions(scrubRegions)
	}
	for _, r := range scrubRegions {
		m.emit(trace.KScrubPlan, d.id, 0, 0, uint64(r.Start), r.Size())
	}
	// Detach the whole subtree: the victim's capabilities (and all
	// derived ones) leave the index, while grant suspensions persist so
	// parents cannot re-delegate regions that are about to be scrubbed.
	det := m.space.DetachOwner(owner)
	// The scrub's rounds invalidate for the victim and every owner in
	// its detached subtree: the domains that lose the regions.
	var domBuf [8]uint64
	doms := append(domBuf[:0], uint64(owner))
	for _, a := range det.Actions() {
		doms = append(doms, uint64(a.Owner))
	}
	slices.Sort(doms)
	doms = slices.Compact(doms)
	m.stats.revocations.Add(1)
	m.emit(trace.KRevoke, d.id, 1, 0, 0, 0)
	// Forced scrub, region by region in plan order: zero, charge, shoot
	// down, KScrub — every KScrub precedes the KKill. Serial on purpose:
	// physical memory holds its exclusive lock for a whole clear, so
	// zeroing on several host threads would not overlap.
	//
	// The migratebug mutation elides the whole erase on the departure
	// path (scrub, shootdowns, key drop) AFTER the plan was announced:
	// every KScrubPlan stays unmatched at the KKill, which is what both
	// trace checkers must flag.
	elide := departEraseElided && t.depart
	if !elide {
		for i, r := range scrubRegions {
			if scrubSkipFirst && i == 0 {
				// Seeded mutation (scrubbug build tag): the first planned
				// region is neither zeroed nor shot down — its KScrubPlan is
				// still unmatched when KKill closes the destruction.
				continue
			}
			if err := m.mach.Mem.Zero(r); err != nil {
				return err
			}
			m.mach.Clock.Advance(r.Size() / hw.CacheLineSize * m.mach.Cost.ZeroLine)
			m.lockCores()
			m.mach.ShootdownRegion(r, doms...)
			m.unlockCores()
			m.stats.pagesScrubbed.Add(r.Pages())
			m.emit(trace.KScrub, d.id, 0, 0, uint64(r.Start), r.Size())
		}
	}
	// Scrub done: the detached subtree retires as a revocation's does —
	// cleanups, release (parents regain granted-back regions), resync of
	// the surviving owners. Past this point the kill runs to its end
	// whatever a step returns — a failed cleanup or survivor rebuild must
	// not leave the victim's backend state, key and schedule entries
	// behind — and the first error is returned.
	firstErr := m.retire(false, det)
	if err := m.bk.RemoveDomain(owner); firstErr == nil {
		firstErr = err
	}
	if !elide {
		m.cryptoErase(d.id)
	}
	// Clear scheduling state referring to the dead domain. Core run
	// loops hold their sched mutex only briefly — take each in turn.
	for _, sc := range m.sched {
		sc.mu.Lock()
		if sc.hasCur && sc.cur == d.id {
			sc.cur, sc.hasCur = 0, false
		}
		sc.mu.Unlock()
	}
	// The dead domain's vCPU contexts go with it. Any dispatch that
	// validated liveness before the death publish has retired inside
	// the grace period above; later ones see the death and drop the
	// vCPU — so a killed domain is never dispatched again (the trace
	// oracle's dead-domain-silence property over KTransition checks it).
	d.mu.Lock()
	m.vcpus.Add(-int64(len(d.vcpus)))
	d.vcpus = nil
	d.mu.Unlock()
	m.emit(trace.KKill, d.id, 0, 0, 0, 0)
	return firstErr
}

// containFault handles a machine check taken on core while victim ran
// (destructive-family entry held). The victim is force-killed and the
// core's call stack discarded; survivors on other cores are untouched.
// A fault while the initial domain ran only parks the core — dom0 holds
// the platform's root capabilities, and destroying it would take down
// every descendant, the opposite of containment.
func (m *Monitor) containFault(core phys.CoreID, victim DomainID) error {
	m.stats.machineChecks.Add(1)
	m.emitCore(core, trace.KContain, victim, 0, 0, 0, 0)
	if sc, ok := m.sched[core]; ok {
		sc.mu.Lock()
		sc.frames = nil
		sc.cur, sc.hasCur, sc.vcpu = 0, false, VCPU{}
		sc.mu.Unlock()
	}
	m.stats.coresParked.Add(1)
	d, ok := m.tab.Load().get(victim)
	if !ok || d.State() == StateDead {
		// Nothing live was running (the fault hit a half-torn-down
		// domain); parking the core is the whole containment.
		return nil
	}
	if victim == InitialDomain {
		return nil
	}
	return m.reclaim(m.forcePublish(d, false))
}
