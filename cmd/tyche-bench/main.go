// tyche-bench regenerates the paper's figures and claims as tables (see
// DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured).
//
// Usage:
//
//	tyche-bench -list
//	tyche-bench -experiment F2
//	tyche-bench                  # run everything
//	tyche-bench -backend pmp -experiment F4
//	tyche-bench -traced -experiment C15
//	tyche-bench -verify -experiment C15
//	tyche-bench -traced -parallel 4 -out BENCH.json   # the committed record
//
// Results carry counts, simulated cycles and verdicts only, so the same
// seed reproduces the same record on any host (EXPERIMENTS.md lists the
// few multi-core rows that follow the host's thread interleaving); the
// elapsed time goes to stderr. The process exits non-zero if any
// experiment's shape checks fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/tyche-sim/tyche/internal/bench"
	"github.com/tyche-sim/tyche/internal/core"
)

// benchOutput is the BENCH.json schema: the run configuration plus
// every experiment result (tables, checks, metrics).
type benchOutput struct {
	Backend  string
	Quick    bool
	Seed     int64
	Parallel int
	Results  []*bench.Result
}

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment ID (F1-F4, C1-C16, C19-C23); empty runs all")
		backend    = flag.String("backend", "vtx", "enforcement backend: vtx or pmp")
		quick      = flag.Bool("quick", false, "smaller sweeps")
		seed       = flag.Int64("seed", 1, "workload seed")
		list       = flag.Bool("list", false, "list experiments and exit")
		asJSON     = flag.Bool("json", false, "emit results as JSON to stdout (for CI)")
		parallel   = flag.Int("parallel", 1, "experiments to run concurrently")
		out        = flag.String("out", "", "write machine-readable results (BENCH.json) to this file")
		traced     = flag.Bool("traced", false, "run every experiment with the cycle-stamped tracer and online invariant checker attached")
		verify     = flag.Bool("verify", false, "attach the always-on runtime-verification service (sharded checker) to every experiment world")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-4s %-70s %s\n", "ID", "TITLE", "PAPER ARTEFACT")
		for _, e := range bench.Experiments() {
			fmt.Printf("%-4s %-70s %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}
	cfg := bench.Config{
		Trace:   *traced,
		Verify:  *verify,
		Backend: core.BackendKind(*backend),
		Quick:   *quick,
		Seed:    *seed,
	}
	exps := bench.Experiments()
	if *experiment != "" {
		e, ok := bench.Lookup(*experiment)
		if !ok {
			fmt.Fprintf(os.Stderr, "tyche-bench: unknown experiment %q (-list to enumerate)\n", *experiment)
			os.Exit(2)
		}
		exps = []bench.Experiment{e}
	}
	start := time.Now()
	results, err := bench.RunExperiments(exps, cfg, *parallel)
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tyche-bench: %v\n", err)
		os.Exit(1)
	}
	failed := 0
	for _, res := range results {
		if !*asJSON {
			res.Render(os.Stdout)
		}
		failed += len(res.Failed())
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "tyche-bench:", err)
			os.Exit(1)
		}
	}
	if *out != "" {
		doc := benchOutput{
			Backend:  *backend,
			Quick:    *quick,
			Seed:     *seed,
			Parallel: *parallel,
			Results:  results,
		}
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tyche-bench: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tyche-bench: wrote %s (%d experiments, %s wall)\n",
			*out, len(results), wall.Round(time.Millisecond))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "tyche-bench: %d failed check(s)\n", failed)
		os.Exit(1)
	}
}
