// Command compare sets two directories of benchmark results side by
// side, one row per metric and workload, and judges each end-to-end row
// against the bound BENCHMARK.json fixes for it.
//
//	go run ./compare [-spec ../BENCHMARK.json] A/ B/
//
// A is the parent's results, B the change's; each directory holds the
// <workload>.seed<n>.trace<t>.json files the benchmark writes to its
// -out directory. The verdicts:
//
//	unchanged   B's median is within the bound of A's
//	better      B's median is better by more than A's own spread, or
//	            every run of B beats every run of A
//	worse       B's median is worse by more than the bound
//	unresolved  the run-to-run spread is wider than the bound, so a
//	            difference of the bound's size could not be seen
//
// Counts in the simulated currency repeat exactly for a seed, so a row
// whose runs all read the same in A and B is unchanged whatever its
// bound. Every ratio is printed with its base, A's median. Per-layer
// rows have no bound and get no verdict. The exit code is 1 if any row
// is worse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type resultFile struct {
	Workload string `json:"workload"`
	Correct  bool   `json:"correct"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// samples maps workload, then metric, to the values of every run.
type samples map[string]map[string][]float64

func load(dir string) (samples, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.seed*.trace[01].json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	out := samples{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: the run's outputs were wrong", p)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, nil
}

// summary is a sorted sample's median and quartiles.
type summary struct {
	n           int
	med, q1, q3 float64
	min, max    float64
}

func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 { // linear interpolation between ranks
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return summary{len(s), at(0.5), at(0.25), at(0.75), s[0], s[len(s)-1]}
}

func (s summary) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.med
}

func verdict(m metricSpec, a, b summary) string {
	if a.min == a.max && b.min == b.max && a.min == b.min {
		return "unchanged"
	}
	// sign turns "worse" into a positive change whichever way is better.
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	change := 0.0
	if a.med != 0 {
		change = sign * (b.med - a.med) / a.med
	}
	bBeatsA := b.max < a.min // every run of B beats every run of A
	if m.Better == "higher" {
		bBeatsA = b.min > a.max
	}
	switch {
	case bBeatsA:
		return "better"
	case a.spread() > m.Bound || b.spread() > m.Bound:
		return "unresolved"
	case change > m.Bound:
		return "worse"
	case -change > a.spread() && -change > m.Bound:
		return "better"
	default:
		return "unchanged"
	}
}

func main() {
	specPath := flag.String("spec", "", "path to BENCHMARK.json (default: ./ or ../)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] A/ B/")
		os.Exit(2)
	}
	if err := run(*specPath, flag.Arg(0), flag.Arg(1)); err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		os.Exit(1)
	}
}

func readSpec(path string) (*spec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	var raw []byte
	var err error
	for _, c := range candidates {
		if raw, err = os.ReadFile(c); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var s spec
	return &s, json.Unmarshal(raw, &s)
}

func run(specPath, dirA, dirB string) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := load(dirA)
	if err != nil {
		return err
	}
	b, err := load(dirB)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tB/A (base)\tbound\tverdict")
	worse := 0
	row := func(wl string, m metricSpec, bounded bool) {
		va, vb := a[wl][m.Name], b[wl][m.Name]
		if len(va) == 0 || len(vb) == 0 {
			return
		}
		sa, sb := summarize(va), summarize(vb)
		ratio, bound, v := "-", "-", "-"
		if sa.med != 0 {
			ratio = fmt.Sprintf("%.4f (%.6g)", sb.med/sa.med, sa.med)
		}
		if bounded {
			bound = fmt.Sprintf("%.3g", m.Bound)
			if v = verdict(m, sa, sb); v == "worse" {
				worse++
			}
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%.6g [%.6g, %.6g] %d\t%.6g [%.6g, %.6g] %d\t%s\t%s\t%s\n",
			wl, m.Name, m.Unit, sa.med, sa.q1, sa.q3, sa.n, sb.med, sb.q1, sb.q3, sb.n, ratio, bound, v)
	}
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			row(wl.Name, m, true)
		}
	}
	for _, wl := range sp.Workloads {
		for _, m := range sp.PerLayer {
			row(wl.Name, m, false)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d rows are worse", worse)
	}
	return nil
}
