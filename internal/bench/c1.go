package bench

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func init() {
	register(Experiment{
		ID:    "C1",
		Title: "Monitor TCB size: thousands of lines, not millions",
		Paper: "§4 '<10K LOC', §3.5 'orders of magnitude smaller'",
		Gates: []Gate{
			{"tcb-under-10k", "tcb_lines", gt(0), "the audit counted the TCB"},
			{"tcb-under-10k", "tcb_lines", lt(10000), "§4: Tyche is <10K LOC"},
			{"tcb-minority", "tcb_lines / total_lines", lt(0.5), "§3.5: a monitor is a small part of the system it hosts"},
		},
	}, runC1)
}

// runC1 counts the repository's non-test Go lines per subsystem and
// checks the paper's shape: the monitor core (capability engine +
// monitor + backends, the code a verifier must trust) stays under the
// 10K-line budget and is a small fraction of the overall system —
// "an isolation monitor or microkernel is expected to be orders of
// magnitude smaller, e.g., thousands of lines of code instead of
// millions, than a typical monolithic kernel or hypervisor" (§3.5).
func runC1(cfg Config, res *Result) error {
	res.Columns = []string{"subsystem", "packages", "LoC", "in TCB"}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	groups := []struct {
		name string
		pkgs []string
		tcb  bool
	}{
		{"capability engine", []string{"internal/cap", "internal/phys"}, true},
		{"monitor core", []string{"internal/core", "internal/codec"}, true},
		{"enforcement backends", []string{"internal/backend"}, true},
		{"attestation verifier", []string{"internal/attest", "internal/tpm"}, false},
		{"hardware substrate (simulator)", []string{"internal/hw"}, false},
		{"domain libraries (libtyche, image)", []string{"internal/libtyche", "internal/image"}, false},
		{"guest OS kit", []string{"internal/oskit"}, false},
		{"baselines", []string{"internal/baseline"}, false},
		{"experiments (bench)", []string{"internal/bench"}, false},
	}
	var tcb, total int
	for _, g := range groups {
		var n int
		for _, p := range g.pkgs {
			c, err := countGoLines(filepath.Join(root, p))
			if err != nil {
				return err
			}
			n += c
		}
		total += n
		if g.tcb {
			tcb += n
		}
		res.row(g.name, strings.Join(g.pkgs, ","), fmt.Sprintf("%d", n), boolYes(g.tcb))
	}
	res.row("TOTAL", "", fmt.Sprintf("%d", total), "")
	res.row("TCB (trusted by verifiers)", "", fmt.Sprintf("%d", tcb), "yes")
	res.metric("tcb_lines", float64(tcb))
	res.metric("total_lines", float64(total))
	res.note("non-test .go lines; the TCB is what a verifier must trust after attestation")
	res.note("the hardware substrate replaces silicon, not monitor code; Linux-class kernels it hosts are millions of lines")
	return nil
}

func boolYes(v bool) string { return boolCellWord(v, "yes", "no") }

// repoRoot locates the repository root from this source file's path.
func repoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("bench: cannot locate source tree")
	}
	// file = <root>/internal/bench/c1.go
	root := filepath.Dir(filepath.Dir(filepath.Dir(file)))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("bench: source tree not available at %s (LoC audit needs a checkout): %w", root, err)
	}
	return root, nil
}

// countGoLines counts non-test Go source lines (excluding blank lines)
// under dir, recursively.
func countGoLines(dir string) (int, error) {
	total := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1024*1024), 1024*1024)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) != "" {
				total++
			}
		}
		return sc.Err()
	})
	return total, err
}
