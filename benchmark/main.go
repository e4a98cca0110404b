// Command benchmark is this repository's benchmark: five workloads over
// the simulated monitor and the fleet built on it, measured end to end
// (an untraced run) and layer by layer (a traced run). See README.md.
//
//	benchmark -workload <name|all> -seed <n> [-seconds <s>] [-trace <0|1>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything else goes to
// standard error. A wrong output ends the run with a non-zero exit code
// and the seed that reproduces it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// hostThreads is pinned so that a run means the same on any host: one
// thread per closed-loop client of the widest workload.
const hostThreads = 2

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    int
	out      string
}

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout))
}

func mainExit(args []string, stdout io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all (one fresh process each)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&o.seconds, "seconds", 15, "how long the timed phase measures")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.IntVar(&o.scale, "scale", 1, "divide every slice's op count (tests and smoke runs)")
	fs.StringVar(&o.out, "out", "out", "directory for result and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.scale < 1 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -scale must be at least 1, -seconds positive, -trace 0 or 1")
		return 2
	}
	if o.workload == "all" {
		return runAll(args, stdout)
	}
	wl, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	runtime.GOMAXPROCS(hostThreads)
	logf("host: %d cpus, GOMAXPROCS %d, %s", runtime.NumCPU(), hostThreads, runtime.Version())

	res := result{Metrics: metrics{}}
	var err error
	if o.trace == 1 {
		res.Attempted, err = perLayer(wl, o, res.Metrics)
	} else {
		res.Attempted, err = endToEnd(wl, o.seed, o.seconds, o.scale, res.Metrics)
	}
	if err == nil {
		err = res.Metrics.complete(o.trace)
	}
	if err != nil {
		// The oracle stops at the first wrong output: that op failed.
		fmt.Fprintf(os.Stderr, "benchmark: FAILED workload=%s seed=%d trace=%d: %v\n", o.workload, o.seed, o.trace, err)
		res.Failed, res.Metrics = 1, metrics{}
		if res.Attempted < 1 {
			res.Attempted = 1
		}
	}
	res.Correct = err == nil
	line, _ := json.Marshal(res)
	if res.Correct {
		// The file compare reads: the result with what produced it.
		file, _ := json.MarshalIndent(struct {
			Workload string  `json:"workload"`
			Seed     int64   `json:"seed"`
			Trace    int     `json:"trace"`
			Seconds  float64 `json:"seconds"`
			Go       string  `json:"go"`
			CPUs     int     `json:"cpus"`
			result
		}{o.workload, o.seed, o.trace, o.seconds, runtime.Version(), runtime.NumCPU(), res}, "", " ")
		name := fmt.Sprintf("%s.seed%d.trace%d.json", o.workload, o.seed, o.trace)
		if werr := writeFile(filepath.Join(o.out, name), append(file, '\n')); werr != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", werr)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll gives every workload a fresh process, so that one's heap and
// scheduler state never reach the next one's numbers.
func runAll(args []string, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	for _, wl := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", wl.name)...)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
			code = 1
		}
	}
	return code
}

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}
