package bench

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/dist"
	"github.com/tyche-sim/tyche/internal/rv"
	"github.com/tyche-sim/tyche/internal/trace"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

func init() {
	register(Experiment{
		ID:    "C21",
		Title: "Always-on runtime verification: sharded checking at production rates, audited across machines",
		Paper: "trust without hierarchy needs evidence: the monitor's invariants are checked live on every machine and re-checked by its peers",
		Run:   runC21,
	})
}

// runC21 validates the always-on runtime-verification stack end to end,
// in three phases:
//
//	A — transparency: the C19-style oversubscribed scheduler workload
//	    at 8-core full load, run untraced and with sharded
//	    verification, twice each. Gates: bit-identical simulated cycle
//	    histories with checking on and off (verification must never
//	    advance the clocks it audits), a clean verdict, and tallies
//	    that reconcile with the monitor's statistics. What checking
//	    costs the host (rv.op_share_pct, bench.trace_overhead_pct) is
//	    benchmark/'s question.
//	B — correctness: the run's own trace replayed through BOTH checker
//	    implementations, clean and with a seeded dead-domain violation;
//	    serial is the reference semantics, sharded must agree verbatim.
//	C — remoteness: a second machine ships hash-chained trace digests
//	    over the attested dist channel; the verifier machine replays the
//	    audit stream, flags a violation seeded on the remote node, and
//	    the wire tamper is caught by the channel itself.
func runC21(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C21", Title: "Always-on runtime verification (overhead / differential / remote audit)",
		Columns: []string{"phase", "event", "detail"},
	}
	if err := runC21Overhead(cfg, res); err != nil {
		return nil, fmt.Errorf("c21 phase A: %w", err)
	}
	if err := runC21Differential(cfg, res); err != nil {
		return nil, fmt.Errorf("c21 phase B: %w", err)
	}
	if err := runC21Remote(cfg, res); err != nil {
		return nil, fmt.Errorf("c21 phase C: %w", err)
	}
	return res, nil
}

// c21Run is one verification mode, run twice.
type c21Run struct {
	cycles  uint64 // first run; the second must agree
	drifted bool   // the second run's cycles differed
	events  uint64 // tracer emissions (last run)
	verdict error  // rv verdict (nil when clean or mode off)
	inexact bool   // tallies failed to reconcile with Stats()
}

// runC21Overhead is phase A: the 16-domain / 8-worker-core scheduler
// workload with verification off and on, each run twice — the second
// run is the stability witness for the first.
func runC21Overhead(cfg Config, res *Result) error {
	const domains, workers, trials = 16, 8, 2
	iters, quantum := 60_000, 8192
	if cfg.Quick {
		iters = 6_000
	}

	runOnce := func(verify bool, out *c21Run, first bool) error {
		local := cfg
		local.Trace, local.Verify, local.audit = false, false, nil
		w, cores, err := schedWorld(local, workers, quantum)
		if err != nil {
			return err
		}
		var svc *rv.Service
		var base core.Stats
		if verify {
			base = w.mon.Stats()
			if svc, err = rv.Attach(w.mach, w.mon, rv.Options{Node: "bench"}); err != nil {
				return err
			}
		}
		if _, err := loadTenants(w, domains, cores, computeTenant(uint32(iters))); err != nil {
			return err
		}
		before := w.mach.Clock.Cycles()
		if _, err := w.mon.RunCores(16_000_000, cores...); err != nil {
			return err
		}
		cycles := w.mach.Clock.Cycles() - before
		if st := w.mon.Stats(); st.SchedCompleted != uint64(domains) {
			return fmt.Errorf("only %d of %d tenants completed", st.SchedCompleted, domains)
		}
		if first {
			out.cycles = cycles
		} else if cycles != out.cycles {
			out.drifted = true
		}
		if svc != nil {
			if err := svc.Finalize(); err != nil {
				out.verdict = err
			}
			out.events = svc.Tracer().Len()
			// Event-derived tallies must reconcile with the monitor's
			// statistics over the attached window.
			out.inexact = !countsMatchSince(svc.Checker().Counts(), w.mon.Stats(), base)
		}
		return nil
	}

	off, exact := &c21Run{}, &c21Run{}
	for t := 0; t < trials; t++ {
		if err := runOnce(false, off, t == 0); err != nil {
			return fmt.Errorf("off, run %d: %w", t, err)
		}
		if err := runOnce(true, exact, t == 0); err != nil {
			return fmt.Errorf("verify, run %d: %w", t, err)
		}
	}

	res.row("A", "off", fmt.Sprintf("cycles %s", fmtU(off.cycles)))
	res.row("A", "verify exact", fmt.Sprintf("cycles %s, %s events", fmtU(exact.cycles), fmtU(exact.events)))
	res.metric("a_cycles", float64(off.cycles))
	res.metric("a_events", float64(exact.events))

	res.check("a-cycles-identical",
		!off.drifted && !exact.drifted && off.cycles == exact.cycles,
		"verification advances no simulated clocks: off=%d exact=%d over %d runs each",
		off.cycles, exact.cycles, trials)
	res.check("a-verifier-clean", exact.verdict == nil,
		"verification reports the workload clean: %v", exact.verdict)
	res.check("a-counts-exact", !exact.inexact,
		"event tallies reconcile with the Stats() delta over the attached window")
	res.note("phase A: %d domains over %d worker cores, %d iterations each, quantum %d, %d runs per mode",
		domains, workers, iters, quantum, trials)
	return nil
}

// sortedViolationMsgs projects violations to a sorted message multiset
// for cross-checker comparison.
func sortedViolationMsgs(vs []check.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Msg
	}
	sort.Strings(out)
	return out
}

// checkersAgree reports whether serial and sharded replays of the same
// stream reached identical verdicts, violation multisets, and counts.
func checkersAgree(serial *check.Checker, sh *check.Sharded) bool {
	return (serial.Err() == nil) == (sh.Err() == nil) &&
		slices.Equal(sortedViolationMsgs(serial.Violations()), sortedViolationMsgs(sh.Violations())) &&
		serial.Counts() == sh.Counts()
}

// runC21Differential is phase B: record a real share/revoke/kill
// history in-process and replay it through both checker
// implementations, clean and with a seeded dead-domain violation.
func runC21Differential(cfg Config, res *Result) error {
	local := cfg
	local.Trace, local.Verify, local.audit = false, false, nil
	w, err := newWorld(local, defaultWorldOpts())
	if err != nil {
		return err
	}
	tr := w.mach.NewTracer(1 << 15)
	w.mach.SetTracer(tr)
	peer, err := w.cl.Load(haltImage("c21-peer"), loadOn())
	if err != nil {
		return err
	}
	rg, err := w.cl.Alloc(1)
	if err != nil {
		return err
	}
	rounds := 48
	if cfg.Quick {
		rounds = 12
	}
	for i := 0; i < rounds; i++ {
		node, err := w.mon.Share(core.InitialDomain, w.cl.HeapNode(), peer.ID(),
			cap.MemResource(rg), cap.MemRW, cap.CleanFlushTLB)
		if err != nil {
			return err
		}
		if err := w.mon.Revoke(core.InitialDomain, node); err != nil {
			return err
		}
	}
	if err := w.mon.ForceKill(peer.ID()); err != nil {
		return err
	}
	if d := tr.Dropped(); d != 0 {
		return fmt.Errorf("trace ring dropped %d events", d)
	}

	evs := tr.Events()
	serial, sh := check.Replay(evs), check.ReplaySharded(evs)
	res.row("B", "differential replay, clean history", fmt.Sprintf("%d events, serial vs sharded", len(evs)))
	res.metric("b_events", float64(len(evs)))
	res.check("b-clean", serial.Err() == nil && sh.Err() == nil,
		"both checkers accept the recorded history: serial %v, sharded %v", serial.Err(), sh.Err())
	res.check("b-agree-clean", checkersAgree(serial, sh),
		"verdict, violation multiset, and counts identical on the clean history")

	// Seed the violation the paper's trust argument hinges on: the
	// "hardware" speaks for a domain the monitor already killed.
	w.mach.Trace(trace.GlobalCore, trace.KShare, uint64(peer.ID()), 0, 99, 0x1000, 4096)
	evs = tr.Events()
	serial, sh = check.Replay(evs), check.ReplaySharded(evs)
	caught := serial.Err() != nil && sh.Err() != nil
	res.row("B", "differential replay, seeded dead-domain use",
		boolCellWord(caught, "both reject", "MISSED"))
	res.check("b-violation-agree", caught && checkersAgree(serial, sh),
		"both checkers reject the seeded dead-domain use with identical verdicts: %v", serial.Err())
	return nil
}

// runC21Remote is phase C: two independently booted machines; the
// remote node runs verified with digest shipping over the attested
// channel, seeds a violation, and the verifier machine must catch it.
func runC21Remote(cfg Config, res *Result) error {
	// Digests carry the interval's full structural audit stream, so the
	// registered buffers are sized well past one interval's encoding.
	a, err := newRDMANode("c21-verifier", 32, core.BootConfig{Backend: cfg.Backend})
	if err != nil {
		return err
	}
	b, err := newRDMANode("c21-remote", 32, core.BootConfig{Backend: cfg.Backend})
	if err != nil {
		return err
	}
	wire := &dist.Wire{}
	epA, err := a.endpoint(b)
	if err != nil {
		return err
	}
	epB, err := b.endpoint(a)
	if err != nil {
		return err
	}
	conn, err := dist.Connect(epA, epB, wire)
	res.row("C", "attested channel between verifier and remote node", boolCell(err == nil))
	res.check("c-connect", err == nil, "mutual attestation established the digest channel: %v", err)
	if err != nil {
		return nil // nothing to ship digests over; the FAIL above is the outcome
	}

	// The remote node verifies itself and ships every interval's digest
	// to the verifier machine through the channel.
	ver := check.NewRemoteVerifier("remote")
	ship := func(raw []byte) error {
		got, err := conn.Send(epB, raw)
		if err != nil {
			return err
		}
		return ver.Consume(got)
	}
	svc, err := rv.Attach(b.mon.Machine(), b.mon, rv.Options{Node: "remote", Ship: ship})
	if err != nil {
		return err
	}

	// Remote workload: the endpoint enclave runs to halt (the RunCores
	// quiescent point fires the checkpoint, shipping interval 0), then a
	// scratch domain takes an exclusive grant and is killed cleanly.
	if err := b.dom.Launch(1); err != nil {
		return err
	}
	if _, err := b.mon.RunCores(10_000, 1); err != nil {
		return err
	}
	scratch, err := b.mon.CreateDomain(core.InitialDomain, "scratch")
	if err != nil {
		return err
	}
	rg, err := b.cl.Alloc(1)
	if err != nil {
		return err
	}
	if _, err := b.mon.Grant(core.InitialDomain, b.cl.HeapNode(), scratch,
		cap.MemResource(rg), cap.MemRW, cap.CleanNone); err != nil {
		return err
	}
	if err := b.mon.ForceKill(scratch); err != nil {
		return err
	}
	// The seeded violation: the remote "hardware" emits a share by the
	// domain the monitor just killed.
	b.mon.Machine().Trace(trace.GlobalCore, trace.KShare, uint64(scratch), 0, 99, 0x1000, 4096)

	verr := svc.Finalize()
	res.row("C", "remote node self-verdict", boolCellWord(verr != nil, "violation flagged", "CLEAN"))
	res.check("c-remote-flags-itself", verr != nil && strings.Contains(verr.Error(), "dead domain"),
		"the remote node's own sharded checker rejects the seeded dead-domain use: %v", verr)

	flags := ver.Finalize()
	reported, diverged, broken := false, false, false
	for _, f := range flags {
		switch {
		case strings.Contains(f, "reported violation") && strings.Contains(f, "dead domain"):
			reported = true
		case strings.Contains(f, "diverges"):
			diverged = true
		case strings.Contains(f, "chain") || strings.Contains(f, "hash mismatch") || strings.Contains(f, "truncated"):
			broken = true
		}
	}
	res.row("C", "verifier consumed the digest chain",
		fmt.Sprintf("%d digest(s), %d flag(s)", ver.Digests(), len(flags)))
	res.metric("c_digests", float64(ver.Digests()))
	res.metric("c_flags", float64(len(flags)))
	res.check("c-chain-delivered", svc.Shipped() >= 2 && ver.Digests() == svc.Shipped(),
		"%d hash-chained digests shipped and every one consumed chain-valid", svc.Shipped())
	res.check("c-verifier-detects", reported,
		"the verifier machine flags the remote node's dead-domain violation over the attested channel")
	res.check("c-replay-agrees", !diverged && !broken,
		"independent audit replay agrees with the node's verdicts (no divergence, chain intact): %q", flags)

	// The transport's own integrity: a bit-flip on a digest frame in
	// flight must be rejected by the channel before it can reach the
	// verifier's chain logic.
	wire.Corrupt = func(f []byte) []byte { f[20] ^= 0xff; return f }
	_, tamperErr := conn.Send(epB, []byte("late digest"))
	wire.Corrupt = nil
	res.row("C", "ciphertext bit-flip on a digest frame", boolCell(tamperErr == nil))
	res.check("c-tamper-detected", errors.Is(tamperErr, dist.ErrTampered), "%v", tamperErr)
	res.note("phase C: digests are SHA-256 hash-chained per interval; the verifier replays each interval's structural audit stream through its own serial engine")
	return nil
}
