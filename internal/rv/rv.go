// Package rv is the always-on runtime-verification service: the glue
// that turns the online trace checker (trace/check) into a live
// production monitor-of-the-monitor. Attach wires one machine up end to
// end — tracer, the checker attached as its sink, the monitor's
// quiescent-point checkpoint hook — and, when a Ship function is given,
// emits one hash-chained trace digest per merge for a remote verifier
// (check.RemoteVerifier) on the far side of an attested channel
// (internal/dist). Every violation the node records travels in exactly
// one digest: the one for the merge that follows it, or the final one
// Finalize ships.
//
// Cost model: with the service attached every emit steps the checker's
// engine; a checkpoint copies the interval's structural events into the one
// buffer it lends the digest. In steady state checking allocates
// nothing for any event kind: the checker appends to a reused buffer,
// and the engine recycles its frames and shootdown records. What
// allocates is what the checker keeps — a killed domain's dead-set
// entry, a new domain's first scrub plan, violations — and, in shipping
// mode, each digest's bytes. Checking consumes no simulated cycles, so
// cycle histories are bit-identical with the service on or off — the
// C21 experiment gates exactly that. A Ship transport that moves the
// digest through a simulated device (dist's NIC DMA) charges that
// machine for the bytes it moves.
//
// Ring drains are covered without special cases: every drain is a
// round (core/drain.go), which emits one KDrainBegin/KDrainEnd frame
// whose single coalesced shootdown round the checker audits
// (trace/check property 5, one round per frame), the drain doorbell
// remains the service's merge point, and the frames ride the digests'
// audit stream, so the remote verifier's replay audits property 5 again
// on its own engine.
//
// A Service belongs to one machine's world and, like it, is used by one
// goroutine at a time; it holds no lock.
package rv

import (
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/trace"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

// Options configures Attach.
type Options struct {
	// Node names this machine in digests (defaults to "node").
	Node string
	// Tracer, when non-nil, augments an existing (not yet installed)
	// tracer instead of building one: Attach adds the checker as a
	// sink, and the CALLER installs the tracer afterwards with
	// SetTracer. When nil, Attach builds and installs its own.
	Tracer *trace.Tracer
	// Ship, when non-nil, transports each interval's encoded digest
	// (e.g. over a dist.Conn). Called synchronously from the monitor's
	// checkpoint; errors are latched and reported by Err.
	Ship func(raw []byte) error
}

// Service is one machine's attached runtime verification.
type Service struct {
	tr *trace.Tracer
	ck *check.Checker

	db      *check.DigestBuilder
	ship    func([]byte) error
	shipErr error
	shipped uint64
	final   bool
}

// Attach wires runtime verification onto the machine/monitor pair and
// returns the running service. The checker observes the trace from
// KBoot on; the monitor's checkpoint hook is claimed for the
// service's merge step. Attach cannot fail — every build carries the
// tracer — and the error, always nil, is what is left of the signature
// its callers compile against.
func Attach(mach *hw.Machine, mon *core.Monitor, opts Options) (*Service, error) {
	if opts.Node == "" {
		opts.Node = "node"
	}
	tr := opts.Tracer
	if tr == nil {
		tr = mach.NewTracer(trace.DefaultRingEntries)
	}
	ck := check.New()
	tr.Attach(ck)
	svc := &Service{
		tr:   tr,
		ck:   ck,
		db:   check.NewDigestBuilder(opts.Node),
		ship: opts.Ship,
	}
	mon.SetCheckpoint(svc.checkpoint)
	if opts.Tracer == nil {
		mach.SetTracer(tr)
	}
	return svc, nil
}

// checkpoint is the monitor's quiescent-point hook: merge the checker
// and, in shipping mode, emit the interval's digest.
func (s *Service) checkpoint() { s.digest(s.ck.Merge(), false) }

// digest builds and ships one digest for a merge. Empty
// non-final intervals (no structural events, no new violations) are
// skipped so checkpoint-dense runs don't flood the channel.
func (s *Service) digest(rep check.MergeReport, isFinal bool) {
	if s.ship == nil {
		return
	}
	if len(rep.Events) == 0 && len(rep.NewViolations) == 0 && !isFinal {
		return
	}
	err := s.ship(s.db.Build(rep))
	s.shipped++
	if err != nil && s.shipErr == nil {
		s.shipErr = err
	}
}

// Finalize closes the service once the run is quiescent: the checker's
// End — end-of-trace validation and a last merge — and, in shipping
// mode, a final digest carrying End's report. Idempotent; returns the
// verdict: invariant violations, or else a latched digest-shipping
// error.
func (s *Service) Finalize() error {
	if !s.final {
		s.final = true
		s.digest(s.ck.End(), true)
	}
	if err := s.ck.Err(); err != nil {
		return err
	}
	return s.shipErr
}

// Checker exposes the checker (counts, verdicts).
func (s *Service) Checker() *check.Checker { return s.ck }

// Tracer exposes the service's tracer.
func (s *Service) Tracer() *trace.Tracer { return s.tr }

// Shipped returns how many digests have been emitted.
func (s *Service) Shipped() uint64 { return s.shipped }
