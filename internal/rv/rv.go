// Package rv is the always-on runtime-verification service: the glue
// that turns the sharded incremental trace checker (trace/check) into
// a live production monitor-of-the-monitor. Attach wires one machine
// up end to end — tracer, per-ring shard delivery, the monitor's
// quiescent-point checkpoint hook — and, when a Ship function is given,
// emits one hash-chained trace digest per stable merge for a remote
// verifier (check.RemoteVerifier) on the far side of an attested
// channel (internal/dist). Every violation the node records travels in
// exactly one digest: the one for the merge that found or collected
// it, or the final one Finalize ships.
//
// Cost model: the hot emit path gains one per-ring shard delivery
// (shard-local mutex, zero allocations for the local kinds); cross-core
// property resolution happens only at quiescent points. Checking
// consumes no simulated cycles, so cycle histories are bit-identical
// with the service on or off — the C21 experiment gates exactly that.
// A Ship transport that moves the digest through a simulated device
// (dist's NIC DMA) charges that machine for the bytes it moves.
//
// Ring drains are covered without special cases: every drain is a
// round (core/drain.go), which emits one KDrainBegin/KDrainEnd frame
// whose single coalesced shootdown round the checker audits
// (trace/check property 6), the drain doorbell remains the service's
// merge point, and the frames ride the digests' audit stream, so the
// remote verifier's replay audits property 6 again on its own engine.
package rv

import (
	"sync"

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
	// tracer instead of building one: Attach adds the shard sink, and
	// the CALLER installs the tracer afterwards with SetTracer. When
	// nil, Attach builds and installs its own.
	Tracer *trace.Tracer
	// Ship, when non-nil, transports each interval's encoded digest
	// (e.g. over a dist.Conn). Called synchronously from the monitor's
	// checkpoint; errors are latched and reported by Err.
	Ship func(raw []byte) error
}

// Service is one machine's attached runtime verification.
type Service struct {
	tr *trace.Tracer
	sh *check.Sharded

	mu      sync.Mutex
	db      *check.DigestBuilder
	ship    func([]byte) error
	shipErr error
	shipped uint64
	final   bool
}

// Attach wires runtime verification onto the machine/monitor pair and
// returns the running service. The sharded checker observes the trace
// from KBoot on; the monitor's checkpoint hook is claimed for the
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
	sh := check.NewSharded(tr)
	tr.AttachSharded(sh)
	svc := &Service{
		tr:   tr,
		sh:   sh,
		db:   check.NewDigestBuilder(opts.Node),
		ship: opts.Ship,
	}
	mon.SetCheckpoint(svc.checkpoint)
	if opts.Tracer == nil {
		mach.SetTracer(tr)
	}
	return svc, nil
}

// checkpoint is the monitor's quiescent-point hook: merge the shards
// and, in shipping mode, emit the interval's digest. Merging under mu
// keeps the chain in merge order when checkpoints race.
func (s *Service) checkpoint() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rep := s.sh.Merge(); rep.Merged {
		s.digestLocked(rep, false)
	}
}

// digestLocked builds and ships one digest for a stable merge. Empty
// non-final intervals (no structural events, no new violations) are
// skipped so checkpoint-dense runs don't flood the channel.
func (s *Service) digestLocked(rep check.MergeReport, isFinal bool) {
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
// End — a last merge, the kill reconciliation, end-of-trace validation
// — and, in shipping mode, a final digest carrying End's report.
// Idempotent; returns the verdict: invariant violations, or else a
// latched digest-shipping error.
func (s *Service) Finalize() error {
	s.mu.Lock()
	if !s.final {
		s.final = true
		s.digestLocked(s.sh.End(), true)
	}
	shipErr := s.shipErr
	s.mu.Unlock()
	if err := s.sh.Err(); err != nil {
		return err
	}
	return shipErr
}

// Err is Finalize: the verdict exists only once the service is closed,
// and closing it ships the final digest.
func (s *Service) Err() error { return s.Finalize() }

// Checker exposes the sharded checker (counts, merge stats, verdicts).
func (s *Service) Checker() *check.Sharded { return s.sh }

// Tracer exposes the service's tracer.
func (s *Service) Tracer() *trace.Tracer { return s.tr }

// Shipped returns how many digests have been emitted.
func (s *Service) Shipped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shipped
}
