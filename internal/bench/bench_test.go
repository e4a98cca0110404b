package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/tyche-sim/tyche/internal/core"
)

// TestExperimentsPassAllChecks runs every registered experiment once, in
// quick mode, over a worker pool — which executes exactly what a serial
// run does: results carry counts, simulated cycles and verdicts, never
// host time — and requires every shape check to pass (the experiments
// double as the repository's integration suite) and the pool to hand
// results back in ID order despite out-of-order completion.
func TestExperimentsPassAllChecks(t *testing.T) {
	results, err := RunExperiments(Experiments(), Config{Quick: true, Seed: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	exps := Experiments()
	if len(results) != len(exps) {
		t.Fatalf("results = %d, want %d", len(results), len(exps))
	}
	for i, res := range results {
		t.Run(exps[i].ID, func(t *testing.T) {
			if res.ID != exps[i].ID {
				t.Fatalf("result %d is %s, want %s (ID order)", i, res.ID, exps[i].ID)
			}
			if len(res.Rows) == 0 {
				t.Fatalf("%s produced no table rows", res.ID)
			}
			for _, c := range res.Failed() {
				t.Errorf("%s check %s failed: %s", res.ID, c.Name, c.Detail)
			}
			if t.Failed() {
				var sb strings.Builder
				res.Render(&sb)
				t.Log(sb.String())
			}
		})
	}
}

// hostDependent names the experiments whose results legitimately differ
// between two same-seed runs, with the reason (EXPERIMENTS.md repeats
// the table). Everything else must reproduce byte for byte.
var hostDependent = map[string]string{
	"C15": "w>1: cores run as host goroutines against one cycle clock, so the capring's grace-period and shootdown waits — and the capring's and the transition storm's cycle totals — follow the interleaving (w1 is bit-stable)",
	"C20": "w>1: per-op spans are read off the shared clock, so concurrent cores' progress bleeds into the p99 (cycle totals, traps and rounds are stable)",
	"C23": "fleet.Serve fans requests over host goroutines: how many are in flight on the killed node, and so retried, varies (ROADMAP item 4)",
}

// TestResultsAreHostIndependent is the reproducibility contract: an
// experiment's Result is a pure function of (seed, build tags), so two
// runs with one seed must marshal to the same bytes.
func TestResultsAreHostIndependent(t *testing.T) {
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			if why, ok := hostDependent[e.ID]; ok {
				t.Skip(why)
			}
			var out [2][]byte
			for i := range out {
				res, err := e.Run(Config{Quick: true, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				out[i], _ = json.Marshal(res)
			}
			a, b := out[0], out[1]
			if !bytes.Equal(a, b) {
				at := 0
				for at < len(a) && at < len(b) && a[at] == b[at] {
					at++
				}
				from := max(at-80, 0)
				t.Errorf("%s differs between two runs of seed 1 at byte %d:\n  ...%s\n  ...%s",
					e.ID, at, a[from:min(at+40, len(a))], b[from:min(at+40, len(b))])
			}
		})
	}
}

// TestExperimentsOnPMPBackend re-runs the backend-sensitive scenario
// experiments on the PMP backend (C15 because its refcount, op-count
// and lock-acquisition gates must hold regardless of the enforcement
// mechanism).
func TestExperimentsOnPMPBackend(t *testing.T) {
	for _, id := range []string{"F1", "F4", "C15"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		t.Run(id, func(t *testing.T) {
			res, err := e.Run(Config{Quick: true, Seed: 1, Backend: core.BackendPMP})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Failed() {
				t.Errorf("%s on pmp: check %s failed: %s", id, c.Name, c.Detail)
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	if n := len(Experiments()); n != 25 {
		t.Fatalf("registered experiments = %d, want 25 (F1-F4, C1-C16, C19-C23)", n)
	}
	if _, ok := Lookup("F1"); !ok {
		t.Fatal("F1 missing")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus lookup succeeded")
	}
}

// TestTracedRunAppendsOracleChecks runs a world-booting experiment with
// Config.Trace through the harness and requires the harness-level
// trace-oracle check to appear and pass: with -traced, every
// experiment world is audited by the online invariant checker even
// when the experiment carries no trace checks of its own.
func TestTracedRunAppendsOracleChecks(t *testing.T) {
	e, ok := Lookup("C6")
	if !ok {
		t.Fatal("C6 not registered")
	}
	results, err := RunExperiments([]Experiment{e}, Config{Quick: true, Seed: 1, Trace: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range results[0].Checks {
		if c.Name == "trace-oracle" {
			found = true
			if !c.OK {
				t.Errorf("trace-oracle failed: %s", c.Detail)
			}
		}
	}
	if !found {
		t.Fatalf("no trace-oracle check appended; checks: %+v", results[0].Checks)
	}
}
