package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testScale shrinks every slice to 1/200 of its size, so that all five
// workloads, traced and untraced, run in a few seconds.
const testScale = 200

// runBench runs the command in-process and returns its parsed last
// line.
func runBench(t *testing.T, workload string, seed int64, trace int, out string) result {
	t.Helper()
	var stdout bytes.Buffer
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(seed), "-trace", fmt.Sprint(trace),
		"-seconds", "0.05", "-scale", fmt.Sprint(testScale), "-out", out,
	}
	if code := mainExit(args, &stdout); code != 0 {
		t.Fatalf("%s seed %d trace %d: exit code %d", workload, seed, trace, code)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func checkMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", d.name, m.Value)
		}
	}
}

// TestWorkloads runs every workload small, untraced and traced: every
// declared metric is present and finite, no end-to-end metric is zero,
// the span file is well formed, and on the single-client workloads the
// simulated currency repeats exactly for a seed.
func TestWorkloads(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			out := t.TempDir()
			a := runBench(t, wl.name, 1, 0, out)
			checkMetrics(t, a, endToEndMetrics)
			for name, m := range a.Metrics {
				if m.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}
			traced := runBench(t, wl.name, 1, 1, out)
			checkMetrics(t, traced, perLayerMetrics)
			checkTraceFile(t, filepath.Join(out, wl.name+".trace.json"))
			if wl.name == "fleet_serve" {
				return // two host threads interleave: not exact
			}
			b := runBench(t, wl.name, 1, 0, out)
			if x, y := a.Metrics["sim_cycles_per_op"].Value, b.Metrics["sim_cycles_per_op"].Value; x != y {
				t.Errorf("sim_cycles_per_op differs across two runs of seed 1: %v and %v", x, y)
			}
			again := runBench(t, wl.name, 1, 1, out)
			if x, y := traced.Metrics["hw.instr_per_op"].Value, again.Metrics["hw.instr_per_op"].Value; x != y {
				t.Errorf("hw.instr_per_op differs across two runs of seed 1: %v and %v", x, y)
			}
		})
	}
}

// TestSeedDrivesInputs checks that a workload's generated inputs follow
// the seed: same seed same inputs, another seed other inputs.
func TestSeedDrivesInputs(t *testing.T) {
	inputs := func(seed int64) string {
		r := &run{notes: map[string]float64{}}
		n, err := newNodeWorld(seed, testScale, r)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newCapSyncWorld(seed, testScale, r)
		if err != nil {
			t.Fatal(err)
		}
		node := n.(*nodeWorld)
		return fmt.Sprint(node.delta, node.rng.Intn(1<<16), c.(*capWorld).pick())
	}
	if a, b := inputs(7), inputs(7); a != b {
		t.Errorf("seed 7 gave two sets of inputs:\n%s\n%s", a, b)
	}
	if a, b := inputs(7), inputs(8); a == b {
		t.Errorf("seeds 7 and 8 gave the same inputs: %s", a)
	}
}

// checkTraceFile checks the span file of a traced run: it parses, every
// span is closed, and every span but an op's root lies inside its
// parent, which comes before it.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Args struct{ ID, Parent, Op int }
		}
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	evs := file.TraceEvents
	if len(evs) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	const slack = 0.002 // µs: timestamps are printed to the nanosecond
	for i, e := range evs {
		if e.Ph != "X" || e.Dur < 0 || e.Args.ID != i {
			t.Fatalf("span %d: ph=%q dur=%v id=%d", i, e.Ph, e.Dur, e.Args.ID)
		}
		p := e.Args.Parent
		if p == -1 {
			continue
		}
		if p < 0 || p >= i {
			t.Fatalf("span %d (%s): parent %d", i, e.Name, p)
		}
		if pe := evs[p]; e.Ts < pe.Ts-slack || e.Ts+e.Dur > pe.Ts+pe.Dur+slack || e.Args.Op != pe.Args.Op {
			t.Fatalf("span %d (%s) is not inside its parent %d (%s)", i, e.Name, p, pe.Name)
		}
	}
}

// TestSpecMatchesMetrics holds BENCHMARK.json to the tables in
// metrics.go and harness.go.
func TestSpecMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type specMetric struct{ Name, Unit string }
	var spec struct {
		Paths     []string
		Workloads []struct{ Name string }
		EndToEnd  []specMetric `json:"end_to_end"`
		PerLayer  []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	same := func(kind string, got []specMetric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d declared", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: %s [%s] in BENCHMARK.json, %s [%s] declared", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}
