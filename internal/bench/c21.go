package bench

import (
	"fmt"
	"strings"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/dist"
	"github.com/tyche-sim/tyche/internal/rv"
	"github.com/tyche-sim/tyche/internal/sched"
	"github.com/tyche-sim/tyche/internal/trace"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

func init() {
	register(Experiment{
		ID:    "C21",
		Title: "Always-on runtime verification: sharded checking at production rates, audited across machines",
		Paper: "trust without hierarchy needs evidence: the monitor's invariants are checked live on every machine and re-checked by its peers",
		Gates: []Gate{
			{"a-{checking}-clean", "a_{checking}_violations", eq(0), "the checking observer finds the workload clean"},
			{"a-{checking}-counts-exact", "a_{checking}_count_mismatches", eq(0), "its tallies equal the Stats() delta since it attached"},
			{"a-cycles-identical", "a_{observed}_cycles / a_cycles", eq(1), "observing advances no simulated clock: every mode matches off"},
			{"c-connect", "c_connected", eq(1), "mutual attestation opens the digest channel"},
			{"c-remote-flags-itself", "c_self_dead_domain_violations", ge(1), "the remote node's own checker flags the seeded dead-domain use"},
			{"c-chain-delivered", "c_shipped", ge(2), "hash-chained digests ship"},
			{"c-chain-delivered", "c_digests / c_shipped", eq(1), "and every one is consumed chain-valid"},
			{"c-verifier-detects", "c_reported_dead_domain_flags", ge(1), "the verifier machine sees the reported violation over the channel"},
			{"c-replay-agrees", "c_divergence_flags", eq(0), "its independent replay agrees with the node"},
			{"c-replay-agrees", "c_chain_flags", eq(0), "and the chain is intact"},
		},
	}, runC21)
}

// runC21 validates the always-on runtime-verification stack end to end,
// in two phases:
//
//	A — transparency: the C19-style oversubscribed scheduler workload
//	    at 8-core full load, run once under each observer mode:
//	      off        — no tracer installed: every emit site is one
//	                   atomic nil-load and branch;
//	      ring       — per-core lock-free ring buffers recording every
//	                   event;
//	      ring+check — ring plus the serial online invariant checker as
//	                   a sink;
//	      rv         — the sharded runtime-verification service.
//	    Every experiment that reads cycles from a traced world leans on
//	    the bit-identical cycles gated here. What observing costs the
//	    host (trace.emit_ns, rv.op_share_pct, bench.trace_overhead_pct)
//	    is benchmark/'s question.
//	C — remoteness: a second machine ships hash-chained trace digests
//	    over the attested dist channel; the verifier machine replays the
//	    audit stream and flags a violation seeded on the remote node.
//
// Serial-vs-sharded checker agreement (phase B in EXPERIMENTS.md's
// record) and the channel's rejection of an altered frame are not
// repeated here: core's TestShardedDifferentialWorkloads and dist's
// TestWireTamperDetected pin them on the same or wider inputs.
func runC21(cfg Config, res *Result) error {
	res.Columns = []string{"phase", "event", "detail"}
	if err := runC21Observers(cfg, res); err != nil {
		return fmt.Errorf("c21 phase A: %w", err)
	}
	if err := runC21Remote(cfg, res); err != nil {
		return fmt.Errorf("c21 phase C: %w", err)
	}
	return nil
}

// runC21Observers is phase A: the 16-domain / 8-worker-core scheduler
// workload once per observer mode, each on a bare world so that "off"
// observes nothing and the harness audits none of them.
func runC21Observers(cfg Config, res *Result) error {
	const domains, workers = 16, 8
	iters, quantum := 60_000, 8192
	if cfg.Quick {
		iters = 6_000
	}
	for _, mode := range []string{"off", "ring", "ring+check", "rv"} {
		// A bare world: no observer but the mode's own, attached after
		// boot, so its tallies reconcile against the Stats() delta from
		// here.
		opts := defaultWorldOpts()
		opts.cores, opts.bare = workers+1, true
		w, err := newWorld(cfg, opts)
		if err != nil {
			return err
		}
		q := sched.New(w.mon, sched.Policy{Quantum: quantum, Seed: cfg.Seed}, workerCores(workers))
		base := w.mon.Stats()
		var tr *trace.Tracer
		var ck *check.Checker
		var svc *rv.Service
		switch mode {
		case "ring", "ring+check":
			tr = w.mach.NewTracer(trace.DefaultRingEntries)
			if mode == "ring+check" {
				ck = check.New()
				tr.Attach(ck)
			}
			w.mach.SetTracer(tr)
		case "rv":
			if svc, err = rv.Attach(w.mach, w.mon, rv.Options{Node: "bench"}); err != nil {
				return err
			}
			tr = svc.Tracer()
		}
		if _, err := loadTenants(w, q, domains, computeTenant(uint32(iters))); err != nil {
			return err
		}
		before := w.mach.Clock.Cycles()
		if _, err := q.Run(16_000_000); err != nil {
			return err
		}
		cycles := w.mach.Clock.Cycles() - before
		if n := q.Counters().Completed; n != uint64(domains) {
			return fmt.Errorf("%s: only %d of %d tenants completed", mode, n, domains)
		}

		detail := fmt.Sprintf("cycles %s", fmtU(cycles))
		if tr != nil {
			detail += fmt.Sprintf(", %s events, %s dropped", fmtU(tr.Len()), fmtU(tr.Dropped()))
		}
		res.row("A", mode, detail)
		if mode == "off" {
			res.metric("a_cycles", float64(cycles))
			continue
		}
		res.sweep("observed", mode)
		res.metric("a_"+mode+"_cycles", float64(cycles))
		var obs interface {
			Violations() []check.Violation
			Counts() check.Counts
		}
		switch {
		case ck != nil:
			ck.End()
			obs = ck
		case svc != nil:
			svc.Finalize() // the verdict is the checker's violations, read below
			obs = svc.Checker()
			res.metric("a_events", float64(tr.Len()))
		default:
			continue
		}
		res.sweep("checking", mode)
		res.metric("a_"+mode+"_violations", float64(len(obs.Violations())))
		res.metric("a_"+mode+"_count_mismatches", float64(countMismatches(obs.Counts(), w.mon.Stats(), base)))
	}
	res.note("phase A: %d domains over %d worker cores, %d iterations each, quantum %d, one run per mode",
		domains, workers, iters, quantum)
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
	epA, epB, err := a.endpoints(b)
	if err != nil {
		return err
	}
	conn, err := dist.Connect(epA, epB, &dist.Wire{})
	res.row("C", "attested channel between verifier and remote node", boolCell(err == nil))
	res.metric("c_connected", bit(err == nil))
	if err != nil {
		res.note("phase C connect: %v", err)
		return nil // nothing to ship digests over; c-connect fails
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
	dead := 0
	for _, v := range svc.Checker().Violations() {
		dead += int(bit(strings.Contains(v.String(), "dead domain")))
	}
	res.metric("c_self_dead_domain_violations", float64(dead))

	flags := ver.Finalize()
	var reported, diverged, broken int
	for _, f := range flags {
		switch {
		case strings.Contains(f, "reported violation") && strings.Contains(f, "dead domain"):
			reported++
		case strings.Contains(f, "diverges"):
			diverged++
		case strings.Contains(f, "chain") || strings.Contains(f, "hash mismatch") || strings.Contains(f, "truncated"):
			broken++
		}
	}
	res.row("C", "verifier consumed the digest chain",
		fmt.Sprintf("%d digest(s), %d flag(s)", ver.Digests(), len(flags)))
	res.metric("c_digests", float64(ver.Digests()))
	res.metric("c_flags", float64(len(flags)))
	res.metric("c_shipped", float64(svc.Shipped()))
	res.metric("c_reported_dead_domain_flags", float64(reported))
	res.metric("c_divergence_flags", float64(diverged))
	res.metric("c_chain_flags", float64(broken))
	res.note("phase C: digests are SHA-256 hash-chained per interval; the verifier replays each interval's structural audit stream through its own serial engine")
	return nil
}
