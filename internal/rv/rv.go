// Package rv is the always-on runtime-verification service: the glue
// that turns the sharded incremental trace checker (trace/check) into
// a live production monitor-of-the-monitor. Attach wires one machine
// up end to end — tracer, per-ring shard delivery, optional 1-in-N
// sampling, the monitor's quiescent-point checkpoint hook — and, when
// a Ship function is given, emits one hash-chained trace digest per
// stable merge for a remote verifier (check.RemoteVerifier) on the far
// side of an attested channel (internal/dist).
//
// Cost model: the hot emit path gains one per-ring shard delivery
// (shard-local mutex, zero allocations for the sample-eligible kinds);
// cross-core property resolution happens only at quiescent points. No
// simulated cycles are ever consumed, so cycle histories are
// bit-identical with the service on or off — the C21 experiment gates
// both that and the <5% wall-clock overhead at 8-core full load.
//
// Ring drains are covered without special cases: every drain is a
// round (core/drain.go), which emits one KDrainBegin/KDrainEnd frame
// whose single coalesced shootdown round the checker audits
// (trace/check property 6), the drain doorbell remains the service's
// merge point, and the shipped digests carry the drain-frame tally so
// the remote verifier cross-checks it like every other structural
// count.
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
	// SampleN > 1 samples the high-rate event kinds 1-in-N
	// (trace.Sampleable); safety-critical kinds stay exact. <= 1 is
	// exact mode, where event counts still reconcile with Stats().
	SampleN int
	// Tracer, when non-nil, augments an existing (not yet installed)
	// tracer instead of building one: Attach adds the shard sink and
	// sampling, and the CALLER installs the tracer afterwards with
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
	sh *check.Sharded

	mu      sync.Mutex
	db      *check.DigestBuilder
	ship    func([]byte) error
	shipErr error
	shipped uint64
	// sent tallies violation messages already carried by a shipped
	// digest, so the final digest can report exactly the remainder
	// (eager shard-local detections surface only at End).
	sent  map[string]int
	final bool
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
	if opts.SampleN > 1 {
		tr.SetSampling(opts.SampleN)
	}
	svc := &Service{
		tr:   tr,
		sh:   sh,
		db:   check.NewDigestBuilder(opts.Node, opts.SampleN),
		ship: opts.Ship,
		sent: make(map[string]int),
	}
	mon.SetCheckpoint(svc.checkpoint)
	if opts.Tracer == nil {
		mach.SetTracer(tr)
	}
	return svc, nil
}

// checkpoint is the monitor's quiescent-point hook: merge the shards
// and, in shipping mode, emit the interval's digest.
func (s *Service) checkpoint() {
	rep := s.sh.Merge()
	if !rep.Merged {
		return
	}
	s.digest(rep, false)
}

// digest builds and ships one digest for a stable merge. Empty
// non-final intervals (no structural events, no new violations) are
// skipped so checkpoint-dense runs don't flood the channel.
func (s *Service) digest(rep check.MergeReport, isFinal bool) {
	if s.ship == nil {
		return
	}
	if len(rep.Events) == 0 && len(rep.NewViolations) == 0 && !isFinal {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, raw, err := s.db.Build(rep, s.sh.Counts(), s.sh.ShardStats(), s.tr.SampledOut())
	if err == nil {
		for _, v := range rep.NewViolations {
			s.sent[v.Msg]++
		}
		err = s.ship(raw)
		s.shipped++
	}
	if err != nil && s.shipErr == nil {
		s.shipErr = err
	}
}

// Finalize closes the service once the run is quiescent: a last merge,
// the checker's end-of-trace validation, and — in shipping mode — a
// final digest carrying the structural tail plus every violation not
// yet reported (eager shard-local detections surface here). Idempotent;
// returns Err.
func (s *Service) Finalize() error {
	s.mu.Lock()
	if s.final {
		s.mu.Unlock()
		return s.Err()
	}
	s.final = true
	s.mu.Unlock()

	rep := s.sh.Merge()
	s.sh.End()
	final := check.MergeReport{Merged: true, Events: rep.Events, Seen: s.sh.Seen()}
	s.mu.Lock()
	unsent := make(map[string]int, len(s.sent))
	for msg, n := range s.sent {
		unsent[msg] = -n
	}
	s.mu.Unlock()
	for _, v := range s.sh.Violations() {
		unsent[v.Msg]++
		if unsent[v.Msg] > 0 {
			final.NewViolations = append(final.NewViolations, v)
		}
	}
	s.digest(final, true)
	return s.Err()
}

// Err finalises the checker and reports the verdict: invariant
// violations, or a latched digest-shipping error.
func (s *Service) Err() error {
	if err := s.sh.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shipErr
}

// Checker exposes the sharded checker (counts, merge stats, verdicts).
func (s *Service) Checker() *check.Sharded { return s.sh }

// Tracer exposes the service's tracer.
func (s *Service) Tracer() *trace.Tracer { return s.tr }

// Sampled reports whether the service runs in sampled (inexact-tally)
// mode.
func (s *Service) Sampled() bool { return s.tr.SampleN() > 1 }

// Shipped returns how many digests have been emitted.
func (s *Service) Shipped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shipped
}
