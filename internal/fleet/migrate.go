package fleet

import (
	"errors"
	"fmt"
	"time"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/dist"
)

// pairChannel is the attested channel two nodes' agents keep between
// them: one per unordered node pair, opened by the pair's first
// migration and used by every later one in either direction.
type pairChannel struct {
	conn   *dist.Conn // nil until the first hop and after close
	lo, hi *dist.Endpoint
	wire   dist.Wire // carries the hops whose caller named no wire
}

// pair returns the channel record of two nodes, creating it unopened —
// or nil if one of them has failed: FailNode marks the node before it
// drops the node's channels, so none is created behind its back.
func (f *Fleet) pair(a, b *Node) *pairChannel {
	k := [2]int{min(a.Index, b.Index), max(a.Index, b.Index)}
	pc := f.pairs[k]
	if pc == nil && !a.Failed() && !b.Failed() {
		pc = &pairChannel{}
		f.pairs[k] = pc
	}
	return pc
}

// dropChannels forgets every channel that ends at node i, which is
// marked failed.
func (f *Fleet) dropChannels(i int) {
	for k := range f.pairs {
		if k[0] == i || k[1] == i {
			delete(f.pairs, k)
		}
	}
}

// open returns the pair's channel and src's endpoint of it, performing
// the mutual handshake if the channel is not open or an agent that
// holds its keys is gone.
func (f *Fleet) open(pc *pairChannel, src, dst *Node) (*dist.Conn, *dist.Endpoint, error) {
	if pc.conn != nil && !(src.alive(src.Agent.ID()) && dst.alive(dst.Agent.ID())) {
		pc.conn = nil // the keys were the agents'
	}
	if pc.conn == nil {
		lo, hi := src, dst
		if lo.Index > hi.Index {
			lo, hi = hi, lo
		}
		epLo, err := f.endpoint(lo, hi)
		if err != nil {
			return nil, nil, err
		}
		epHi, err := f.endpoint(hi, lo)
		if err != nil {
			return nil, nil, err
		}
		conn, err := dist.Connect(epLo, epHi, &pc.wire)
		if err != nil {
			return nil, nil, err
		}
		pc.conn, pc.lo, pc.hi = conn, epLo, epHi
	}
	if src.Index < dst.Index {
		return pc.conn, pc.lo, nil
	}
	return pc.conn, pc.hi, nil
}

// Migrate live-migrates one placement of `service` from node `from` to
// node `to` over the attested channel the two nodes' agent enclaves
// keep between them. The hop's frame crosses `wire` (pass an armed wire
// to exercise link faults on this hop and no other; pass nil for a
// clean link).
//
// This is §3.4's two tiers applied per peer: the slow tier — TPM quote,
// monitor identity, agent measurement, key agreement — runs once per
// node pair and once per target node; every hop still seals, MACs and
// sequence-checks its frame under the keys that handshake bound, and
// still verifies a fresh-nonce report of the restored domain, signed by
// the TPM-proven monitor key, sealed and of the expected measurement.
//
// A target that already hosts the service, the source itself included,
// is refused before step 0, with nothing frozen.
//
// Protocol; the blackout is steps 1 to 5:
//
//  0. Channel: take the pair's channel, opening it with a mutual
//     handshake if this is the pair's first hop or the channel was
//     closed, while the source still serves. The handshake reads
//     nothing the freeze protects, and a failed one returns with the
//     placement never deregistered.
//  1. Freeze: deregister the placement. Requests run to completion on
//     the fleet's one thread, so none is in flight.
//  2. Snapshot: capture the quiescent domain (memory, capability
//     shape, entry config, parked vCPUs).
//  3. Ship: serialize and send over the channel. The payload is sealed
//     to it (AEAD + transcript MAC), so a tampered frame surfaces as
//     dist.ErrTampered and a dropped one as dist.ErrLinkLost before
//     any target state exists. Any failed send closes the channel: its
//     sequence number reached the wire, and the next hop's different
//     snapshot under it would reuse the keystream. The next hop
//     handshakes under fresh keys.
//  4. Restore + re-attest: rebuild on the target at the same base; the
//     ordinary Seal path must reproduce the snapshot measurement, and
//     the control plane verifies a fresh report against the session
//     the target's TPM root proved (attestPlacement).
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
	tmpl := f.tmpls[service]
	if tmpl == nil {
		return fmt.Errorf("fleet: unknown service %q", service)
	}
	var pl *Placement
	hosted := false // the target already runs the service
	for _, p := range f.lb.Placements(service) {
		if p.Node == from && pl == nil {
			pl = p
		}
		hosted = hosted || p.Node == to
	}
	if pl == nil {
		return fmt.Errorf("fleet: %q has no placement on %s", service, src.Name)
	}
	fail := func(stage string, err error) error {
		return fmt.Errorf("fleet: migrate %q %s->%s: %s: %w", service, src.Name, dst.Name, stage, err)
	}
	// The target's RestoreDomain would refuse the tenant too, but only
	// after the source had been frozen, snapshotted and shipped.
	if hosted {
		return fail("target", fmt.Errorf("%s already hosts %q", dst.Name, service))
	}

	// Step 0: the pair's channel, outside the blackout.
	pc := f.pair(src, dst)
	if pc == nil {
		return fail("connect", errors.New("a node of the pair is dead"))
	}
	conn, epSrc, err := f.open(pc, src, dst)
	if err != nil {
		return fail("connect", err)
	}
	if wire == nil {
		wire = &pc.wire
	}

	// Step 1: freeze. Blackout starts the moment routing stops.
	f.lb.Deregister(pl)
	start := time.Now()
	abort := func(stage string, err error) error {
		// Source untouched: re-register and report.
		f.lb.Register(pl)
		return fail(stage, err)
	}

	// Step 2: snapshot the quiescent source.
	snap, err := src.Mon.SnapshotDomain(pl.Dom)
	if err != nil {
		return abort("snapshot", err)
	}
	// Step 3: ship over the channel.
	got, err := conn.SendOver(wire, epSrc, snap.Encode())
	if err != nil {
		// Lost or tampered in flight: nothing arrived, nothing was
		// restored; the source keeps serving. The frame's sequence
		// number is spent, so the channel is too.
		pc.conn = nil
		return abort("transfer", err)
	}

	// Step 4: restore from the received bytes and re-attest.
	arrived, err := core.DecodeSnapshot(got)
	if err != nil {
		return abort("decode", err)
	}
	newID, err := dst.Mon.RestoreDomain(core.InitialDomain, dst.CL.HeapNode(), dst.workers, arrived)
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
	f.blackouts = append(f.blackouts, uint64(time.Since(start).Nanoseconds()))

	// Step 6: the source departs with a forced crypto-erase.
	if err := src.Mon.DepartKill(pl.Dom); err != nil {
		return fmt.Errorf("fleet: migrate %q: depart: %w", service, err)
	}
	return nil
}

// Blackouts returns every completed migration's blackout
// (deregister-to-reregister) in nanoseconds.
func (f *Fleet) Blackouts() []uint64 {
	return append([]uint64(nil), f.blackouts...)
}
