package bench

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/trace"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

func init() {
	register(Experiment{
		ID:    "C17",
		Title: "Tracing overhead: cycle-stamped monitor tracing on the C15 contention workload",
		Paper: "runtime verification of the monitor's claimed invariants must not perturb what it observes",
		Run:   runC17,
	})
}

// runC17 runs the identical share+revoke contention workload C15 uses
// under three tracer configurations:
//
//	off        — no tracer installed: every emit site is one atomic
//	             nil-load and branch, the cost everyone pays when not
//	             tracing;
//	ring       — per-core lock-free ring buffers recording every event;
//	ring+check — ring plus the online invariant checker as a sink
//	             (emission serialises to give the checker a total order).
//
// Two properties are load-bearing. First, tracing must advance no
// simulated clocks: the single-worker runs of all three modes must
// consume bit-identical cycle counts, or the act of observing would
// change the system under observation — every other experiment leans
// on this when it reads cycles from a traced run. Second, the checker's
// event-derived counts must reconcile exactly with the monitor's
// statistics over the traced window. What an emit costs the host
// (trace.emit_ns, bench.trace_overhead_pct) is benchmark/'s question.
func runC17(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C17", Title: "Tracing overhead (off / ring / ring+check)",
		Columns: []string{"workers", "mode", "cycles", "events", "dropped", "checker"},
	}
	iters := 64
	if cfg.Quick {
		iters = 24
	}

	type modeRun struct {
		run    *ringRun
		tracer *trace.Tracer
		ck     *check.Checker
		base   core.Stats // stats at tracer install time
	}
	runMode := func(workers int, name string) (*modeRun, error) {
		mr := &modeRun{}
		tweak := func(w *world) error {
			// Worlds may arrive pre-traced (-traced); C17 controls its
			// own instrumentation, so start from a clean slate.
			w.mach.SetTracer(nil)
			w.ck = nil
			// A -verify service attached at boot would keep merging at
			// checkpoints against the replaced tracer; release the hook so
			// C17's modes measure only their own instrumentation.
			w.mon.SetCheckpoint(nil)
			w.rvs = nil
			if name == "off" {
				return nil
			}
			mr.tracer = w.mach.NewTracer(trace.DefaultRingEntries)
			if name == "ring+check" {
				mr.ck = check.New()
				mr.tracer.Attach(mr.ck)
			}
			mr.base = w.mon.Stats()
			w.mach.SetTracer(mr.tracer)
			return nil
		}
		r, err := runShareRevokeRing(cfg, workers, iters, tweak)
		if err != nil {
			return nil, fmt.Errorf("c17 %s/w%d: %w", name, workers, err)
		}
		mr.run = r
		return mr, nil
	}

	modes := []string{"off", "ring", "ring+check"}
	for _, workers := range []int{1, 4} {
		byMode := make(map[string]*modeRun, len(modes))
		for _, name := range modes {
			mr, err := runMode(workers, name)
			if err != nil {
				return nil, err
			}
			byMode[name] = mr
			events, dropped, checker := uint64(0), uint64(0), "-"
			if mr.tracer != nil {
				events, dropped = mr.tracer.Len(), mr.tracer.Dropped()
			}
			if mr.ck != nil {
				if err := mr.ck.Err(); err != nil {
					checker = "VIOLATION"
				} else {
					checker = "clean"
				}
			}
			tag := fmt.Sprintf("w%d", workers)
			res.row(fmt.Sprintf("%d", workers), name, fmtU(mr.run.cycles),
				fmtU(events), fmtU(dropped), checker)
			res.metric(fmt.Sprintf("%s_%s_cycles", tag, name), float64(mr.run.cycles))
			res.check(fmt.Sprintf("%s-%s-complete", tag, name), mr.run.complete,
				"all workers ran to completion%s", mr.run.detail)
		}
		tag := fmt.Sprintf("w%d", workers)
		if workers == 1 {
			// Single worker: execution is sequential, so cycle accounting
			// is exactly reproducible and any divergence is tracing
			// perturbing the machine.
			off, ring, chk := byMode["off"].run.cycles, byMode["ring"].run.cycles, byMode["ring+check"].run.cycles
			res.check("cycles-identical", off == ring && ring == chk,
				"tracing advances no simulated clocks: off=%d ring=%d ring+check=%d", off, ring, chk)
		}
		// The checker saw the whole history since its install: its
		// event-derived counters must reconcile exactly with the stats
		// delta over the same window.
		mc := byMode["ring+check"]
		st := mc.run.w.mon.Stats()
		c := mc.ck.Counts()
		exact := countsMatchSince(c, st, mc.base)
		res.check(tag+"-checker-clean", mc.ck.Err() == nil,
			"online invariant checker over the traced window: %v", mc.ck.Err())
		res.check(tag+"-counts-exact", exact,
			"event-derived counts match the Stats() delta: trace %+v", c)
	}
	return res, nil
}
