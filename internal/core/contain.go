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
// containFault — publishes the death (the absorbing state store), then
// runs the irreversible teardown: detach, forced scrub, the
// revocation's own retire (cleanups, release, resync), backend removal,
// key erase, and the kill's one shootdown round. KKill is emitted last,
// so the scrub-before-kill and dead-domain-silence trace invariants
// hold.

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
	_, err := m.forceDestroy(id)
	return err
}

// ForceKillAll force-kills a batch of domains — the kill-storm path.
// Each victim is validated and its death published in argument order,
// then each is detached and its exclusive memory zeroed in the same
// order, the rest of each reclaim — cleanups, resync, key erase —
// follows in that order again, and one cross-core shootdown round
// covers every victim's scrub and cleanups, as it does a single kill's.
// Victims that fail validation (dead, unknown, or the initial domain)
// are skipped; the first such error is returned alongside the number
// actually killed.
func (m *Monitor) ForceKillAll(ids ...DomainID) (int, error) {
	return m.forceDestroy(ids...)
}

// DepartKill destroys a domain on migration departure: the source-side
// crypto-erase of an attested live migration (migrate.go). It is
// ForceKill with monitor authority plus the departure contract — the
// domain's snapshot has been restored elsewhere, so the local copy's
// exclusive memory MUST be scrubbed and its encryption key dropped
// before the kill completes, or two plaintext instances of a
// confidential workload exist at once. The scrub-before-kill trace
// invariant audits exactly that: every planned region must be scrubbed
// and shot down before the KKill closes the destruction (the migratebug
// mutant elides the erase and the checker, online and replayed, must
// flag it — see TestMigrateMutationOracle).
func (m *Monitor) DepartKill(id DomainID) error {
	return m.ForceKill(id)
}

// forceDestroy is the one monitor-authority kill driver behind
// ForceKill and ForceKillAll: it validates and publishes each victim in
// order, then reclaims them.
func (m *Monitor) forceDestroy(ids ...DomainID) (int, error) {
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
		ticks = append(ticks, m.forcePublish(d))
	}
	if err := m.reclaim(ticks...); firstErr == nil {
		firstErr = err
	}
	return len(ticks), firstErr
}

// forcePublish publishes a monitor-authority kill of d: counted, traced
// as KForceKill, and reclaimed with the forced scrub.
func (m *Monitor) forcePublish(d *Domain) destroyTicket {
	m.stats.ForcedKills++
	m.emit(trace.KForceKill, d.id, 0, 0, 0, 0)
	t := m.destroyPublish(d)
	t.scrub = true
	return t
}

// destroyTicket is a published-but-not-reclaimed domain death: the
// handle destroyPublish returns and reclaim consumes.
type destroyTicket struct {
	d   *Domain
	tok uint64
	// scrub marks a monitor-authority kill: the domain's exclusive
	// memory is zeroed and shot down whatever its cleanup policies say.
	scrub bool

	// Set by destroyScrub for reclaim: the detached subtree, the regions
	// zeroed whose KScrub the kill's round still owes, and the error that
	// stopped the scrub.
	det      *cap.Detached
	scrubbed []phys.Region
	err      error
}

// reclaim is every kill's reclaim step, a single kill and a storm
// alike: each published victim is scrubbed, then each one's tail runs,
// all in publish order, recording their shootdowns; then one cross-core
// round retires every victim's, before any victim's KScrub, KKill and
// KOpEnd. It returns the first error; every tail runs regardless.
func (m *Monitor) reclaim(ticks ...destroyTicket) error {
	for i := range ticks {
		m.destroyScrub(&ticks[i])
	}
	var firstErr error
	for _, t := range ticks {
		if err := m.destroyReclaim(t); firstErr == nil {
			firstErr = err
		}
	}
	m.mach.FlushShootdowns()
	for _, t := range ticks {
		for _, r := range t.scrubbed {
			m.stats.PagesScrubbed += r.Pages()
			m.emit(trace.KScrub, t.d.id, 0, 0, uint64(r.Start), r.Size())
		}
		if t.err == nil {
			m.emit(trace.KKill, t.d.id, 0, 0, 0, 0)
		}
		m.emit(trace.KOpEnd, t.d.id, trace.OpKill, t.tok, 0, 0)
	}
	return firstErr
}

// destroyPublish runs the reversible-at-no-point prefix of a kill: the
// ring teardown and the absorbing death store. After it returns every
// new entry fails the victim's liveness check; nothing irreversible
// has happened yet, so any number of publishes may stack up before
// reclaim runs them.
func (m *Monitor) destroyPublish(d *Domain) destroyTicket {
	tok := m.newTok()
	m.emit(trace.KOpBegin, d.id, trace.OpKill, tok, 0, 0)
	// Drop and scrub the dying domain's submission ring first: the
	// teardown revalidates the owner's access over the ring footprint
	// (skipping the header scrub if the pages were granted away), which
	// only answers correctly while the owner is still live and holds its
	// capabilities. Descriptors a dying domain managed to enqueue are
	// never executed — dead-domain silence covers queued work, not just
	// running work.
	m.ringTeardown(d.id)
	// Publish: every entry from here on fails the liveness check.
	d.state = StateDead
	return destroyTicket{d: d, tok: tok}
}

// destroyScrub runs the first irreversible step of a kill published by
// destroyPublish: plan the forced scrub, detach the subtree, then zero
// every planned region and record its shootdown. The zeroed regions are
// kept in t.scrubbed for reclaim to announce after the round.
func (m *Monitor) destroyScrub(t *destroyTicket) {
	d := t.d
	owner := cap.OwnerID(d.id)
	var plan []phys.Region
	if t.scrub {
		// Exclusive regions are computed before the detach destroys the
		// ownership records. Shared regions are left intact — a surviving
		// co-owner still uses them.
		plan = m.space.AppendExclusive(plan, owner)
	}
	for _, r := range plan {
		m.emit(trace.KScrubPlan, d.id, 0, 0, uint64(r.Start), r.Size())
	}
	// Detach the whole subtree: the victim's capabilities (and all
	// derived ones) leave the index, while grant suspensions persist so
	// parents cannot re-delegate regions that are about to be scrubbed.
	t.det = m.space.DetachOwner(owner)
	// The scrub's shootdowns invalidate for the victim and every owner
	// in its detached subtree: the domains that lose the regions.
	var domBuf [8]uint64
	doms := append(domBuf[:0], uint64(owner))
	for _, a := range t.det.Actions() {
		doms = append(doms, uint64(a.Owner))
	}
	slices.Sort(doms)
	doms = slices.Compact(doms)
	m.stats.Revocations++
	m.emit(trace.KRevoke, d.id, 1, 0, 0, 0)
	// Forced scrub, region by region in plan order: zero, charge, record
	// the shootdown. Every KScrub follows the round and precedes the
	// KKill.
	t.scrubbed = plan[:0] // written behind the loop's reads
	for _, r := range plan {
		if err := m.mach.Mem.Zero(r); err != nil {
			t.err = err
			return
		}
		m.mach.Clock.Advance(r.Size() / hw.CacheLineSize * m.mach.Cost.ZeroLine)
		m.mach.ShootdownRegion(r, doms...)
		t.scrubbed = append(t.scrubbed, r)
	}
}

// destroyReclaim runs the rest of a kill's irreversible tail once
// destroyScrub has scrubbed it, short of the round and the events
// reclaim emits after it.
func (m *Monitor) destroyReclaim(t destroyTicket) error {
	d := t.d
	if t.err != nil {
		return t.err
	}
	owner := cap.OwnerID(d.id)
	// Scrub done: the detached subtree retires as a revocation's does —
	// cleanups, release (parents regain granted-back regions), resync of
	// the surviving owners. Past this point the kill runs to its end
	// whatever a step returns — a failed cleanup or survivor rebuild must
	// not leave the victim's backend state, key and schedule entries
	// behind — and the first error is returned.
	firstErr := m.retire(t.det)
	if err := m.bk.RemoveDomain(owner); firstErr == nil {
		firstErr = err
	}
	m.cryptoErase(d.id)
	// Clear scheduling state referring to the dead domain.
	for _, sc := range m.sched {
		if sc.hasCur && sc.cur == d.id {
			sc.cur, sc.hasCur = 0, false
		}
	}
	// The dead domain's vCPU contexts go with it, so a killed domain is
	// never dispatched again (the trace oracle's dead-domain-silence
	// property over KTransition checks it).
	m.vcpus -= len(d.vcpus)
	d.vcpus = nil
	return firstErr
}

// containFault handles a machine check taken on core while victim ran. The victim is force-killed and the
// core's call stack discarded; survivors on other cores are untouched.
// A fault while the initial domain ran only parks the core — dom0 holds
// the platform's root capabilities, and destroying it would take down
// every descendant, the opposite of containment.
func (m *Monitor) containFault(core phys.CoreID, victim DomainID) error {
	m.stats.MachineChecks++
	m.emitCore(core, trace.KContain, victim, 0, 0, 0, 0)
	if sc, ok := m.sched[core]; ok {
		sc.frames = nil
		sc.cur, sc.hasCur, sc.vcpu = 0, false, VCPU{}
	}
	m.stats.CoresParked++
	d, ok := m.tab.get(victim)
	if !ok || d.State() == StateDead {
		// Nothing live was running (the fault hit a half-torn-down
		// domain); parking the core is the whole containment.
		return nil
	}
	if victim == InitialDomain {
		return nil
	}
	return m.reclaim(m.forcePublish(d))
}
