package fleet

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/dist"
	"github.com/tyche-sim/tyche/internal/sched"
)

// Migrate live-migrates one placement of `service` from node `from` to
// node `to` over an attested channel between the two nodes' agent
// enclaves, carried on `wire` (pass an armed wire to exercise link
// faults; pass nil for a clean link).
//
// Protocol; the blackout is steps 1 to 5:
//
//  0. Connect: open the node-to-node attested channel while the source
//     still serves. The handshake reads nothing the freeze protects,
//     and a failed one returns with the placement never deregistered.
//  1. Freeze: deregister the placement and drain in-flight requests.
//  2. Snapshot: capture the quiescent domain (memory, capability
//     shape, entry config, parked vCPUs) under an epoch pin.
//  3. Ship: serialize and send over the channel. The payload is sealed
//     to it (AEAD + transcript MAC), so a tampered frame surfaces as
//     dist.ErrTampered and a dropped one as dist.ErrLinkLost before
//     any target state exists.
//  4. Restore + re-attest: rebuild on the target at the same base; the
//     ordinary Seal path must reproduce the snapshot measurement, and
//     the control plane re-runs the full attestation chain against the
//     target node's TPM root.
//  5. Unfreeze: register the target placement — blackout ends here.
//  6. Depart: crypto-erase the source instance (DepartKill: forced
//     scrub + MKTME key erase). The domain's plaintext never outlives
//     its departure.
//
// Every failure between steps 1 and 5 aborts cleanly: the source
// placement is re-registered untouched, and a failed restore leaves no
// half-state on the target (RestoreDomain force-kills its partial
// domain).
func (f *Fleet) Migrate(service string, from, to int, wire *dist.Wire) error {
	src, dst := f.Nodes[from], f.Nodes[to]
	if dst.Failed() {
		return fmt.Errorf("fleet: migration target %s is dead", dst.Name)
	}
	f.baseMu.Lock()
	tmpl := f.tmpls[service]
	f.baseMu.Unlock()
	if tmpl == nil {
		return fmt.Errorf("fleet: unknown service %q", service)
	}
	var pl *Placement
	for _, p := range f.lb.Placements(service) {
		if p.Node == from {
			pl = p
			break
		}
	}
	if pl == nil {
		return fmt.Errorf("fleet: %q has no placement on %s", service, src.Name)
	}
	fail := func(stage string, err error) error {
		return fmt.Errorf("fleet: migrate %q %s->%s: %s: %w", service, src.Name, dst.Name, stage, err)
	}

	// Step 0: a fresh node-to-node attested channel, outside the blackout.
	if wire == nil {
		wire = &dist.Wire{}
	}
	epSrc, err := f.endpoint(src, dst)
	if err != nil {
		return fail("endpoint", err)
	}
	epDst, err := f.endpoint(dst, src)
	if err != nil {
		return fail("endpoint", err)
	}
	conn, err := dist.Connect(epSrc, epDst, wire)
	if err != nil {
		return fail("connect", err)
	}

	// Step 1: freeze. Blackout starts the moment routing stops.
	f.lb.Deregister(pl)
	start := time.Now()
	abort := func(stage string, err error) error {
		// Source untouched: re-register and report.
		f.lb.Register(pl)
		return fail(stage, err)
	}
	if err := pl.Drain(); err != nil {
		return abort("drain", err)
	}

	// Step 2: snapshot the quiescent source.
	snap, err := src.Mon.SnapshotDomain(pl.Dom)
	if err != nil {
		return abort("snapshot", err)
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return abort("encode", err)
	}

	// Step 3: ship over the channel.
	got, err := conn.Send(epSrc, payload)
	if err != nil {
		// Lost or tampered in flight: nothing arrived, nothing was
		// restored; the source keeps serving.
		return abort("transfer", err)
	}

	// Step 4: restore from the received bytes and re-attest.
	var arrived core.DomainSnapshot
	if err := json.Unmarshal(got, &arrived); err != nil {
		return abort("decode", err)
	}
	newID, err := dst.Mon.RestoreDomain(core.InitialDomain, dst.CL.HeapNode(), dst.workers, &arrived)
	if err != nil {
		return abort("restore", err)
	}
	if err := f.attestPlacement(dst, newID, tmpl.meas); err != nil {
		_ = dst.Mon.ForceKill(newID)
		return abort("re-attest", err)
	}

	// Step 5: unfreeze on the target — blackout ends.
	moved := &Placement{Service: service, Node: to, Dom: newID, Base: tmpl.base, Delta: pl.Delta}
	f.lb.Register(moved)
	f.recordBlackout(uint64(time.Since(start).Nanoseconds()))

	// Step 6: the source departs with a forced crypto-erase.
	if err := src.Mon.DepartKill(pl.Dom); err != nil {
		return fmt.Errorf("fleet: migrate %q: depart: %w", service, err)
	}
	return nil
}

func (f *Fleet) recordBlackout(ns uint64) {
	f.blackMu.Lock()
	defer f.blackMu.Unlock()
	f.blackouts = append(f.blackouts, ns)
}

// Blackouts returns every completed migration's blackout
// (deregister-to-reregister) in nanoseconds.
func (f *Fleet) Blackouts() []uint64 {
	f.blackMu.Lock()
	defer f.blackMu.Unlock()
	return append([]uint64(nil), f.blackouts...)
}

// BlackoutP99 returns the 99th-percentile blackout in nanoseconds
// (0 when no migration completed).
func (f *Fleet) BlackoutP99() uint64 {
	bs := f.Blackouts()
	if len(bs) == 0 {
		return 0
	}
	return sched.Percentile(bs, 99)
}
