package bench

import (
	"fmt"
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
//	    Gates: bit-identical simulated cycles across all four modes
//	    (observing must never advance the clocks it audits — every
//	    experiment that reads cycles from a traced run leans on this),
//	    and for both checking modes a clean verdict and tallies that
//	    reconcile exactly with the monitor's statistics. What observing
//	    costs the host (trace.emit_ns, rv.op_share_pct,
//	    bench.trace_overhead_pct) is benchmark/'s question.
//	C — remoteness: a second machine ships hash-chained trace digests
//	    over the attested dist channel; the verifier machine replays the
//	    audit stream and flags a violation seeded on the remote node.
//
// Serial-vs-sharded checker agreement (phase B in EXPERIMENTS.md's
// record) and the channel's rejection of an altered frame are not
// repeated here: core's TestShardedDifferentialWorkloads and dist's
// TestWireTamperDetected pin them on the same or wider inputs.
func runC21(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C21", Title: "Always-on runtime verification (observer transparency / remote audit)",
		Columns: []string{"phase", "event", "detail"},
	}
	if err := runC21Observers(cfg, res); err != nil {
		return nil, fmt.Errorf("c21 phase A: %w", err)
	}
	if err := runC21Remote(cfg, res); err != nil {
		return nil, fmt.Errorf("c21 phase C: %w", err)
	}
	return res, nil
}

// runC21Observers is phase A: the 16-domain / 8-worker-core scheduler
// workload once per observer mode.
func runC21Observers(cfg Config, res *Result) error {
	const domains, workers = 16, 8
	iters, quantum := 60_000, 8192
	if cfg.Quick {
		iters = 6_000
	}
	modes := []string{"off", "ring", "ring+check", "rv"}
	cycles := make([]uint64, len(modes))
	for i, mode := range modes {
		local := cfg
		local.Trace, local.Verify, local.audit = false, false, nil
		w, cores, err := schedWorld(local, workers, quantum)
		if err != nil {
			return err
		}
		// Observers attach after boot, so their tallies reconcile against
		// the Stats() delta from here.
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
		if _, err := loadTenants(w, domains, cores, computeTenant(uint32(iters))); err != nil {
			return err
		}
		before := w.mach.Clock.Cycles()
		if _, err := w.mon.RunCores(16_000_000, cores...); err != nil {
			return err
		}
		cycles[i] = w.mach.Clock.Cycles() - before
		if st := w.mon.Stats(); st.SchedCompleted != uint64(domains) {
			return fmt.Errorf("%s: only %d of %d tenants completed", mode, st.SchedCompleted, domains)
		}

		detail := fmt.Sprintf("cycles %s", fmtU(cycles[i]))
		if tr != nil {
			detail += fmt.Sprintf(", %s events, %s dropped", fmtU(tr.Len()), fmtU(tr.Dropped()))
		}
		res.row("A", mode, detail)
		var verdict error
		var counts check.Counts
		switch {
		case ck != nil:
			verdict, counts = ck.Err(), ck.Counts()
		case svc != nil:
			verdict, counts = svc.Finalize(), svc.Checker().Counts()
			res.metric("a_events", float64(tr.Len()))
		default:
			continue
		}
		res.check("a-"+mode+"-clean", verdict == nil, "%s reports the workload clean: %v", mode, verdict)
		res.check("a-"+mode+"-counts-exact", countsMatchSince(counts, w.mon.Stats(), base),
			"%s event tallies reconcile with the Stats() delta since attach: trace %+v", mode, counts)
	}
	res.metric("a_cycles", float64(cycles[0]))
	same := true
	for _, c := range cycles {
		same = same && c == cycles[0]
	}
	res.check("a-cycles-identical", same,
		"observing advances no simulated clocks: %s = %v", strings.Join(modes, " / "), cycles)
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
	epA, err := a.endpoint(b)
	if err != nil {
		return err
	}
	epB, err := b.endpoint(a)
	if err != nil {
		return err
	}
	conn, err := dist.Connect(epA, epB, &dist.Wire{})
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

	res.note("phase C: digests are SHA-256 hash-chained per interval; the verifier replays each interval's structural audit stream through its own serial engine")
	return nil
}
