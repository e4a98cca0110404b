package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
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

// simulated are the packages the monitor links that are not monitor
// code: they stand in for silicon (the machine, its MMU, PMP, IOMMU and
// cores) and for the TPM chip. C1 lists them once and counts them out.
var simulated = map[string]string{
	"internal/hw":  "simulated hardware",
	"internal/tpm": "simulated TPM",
}

// runC1 counts the TCB as what the monitor links: the import closure of
// internal/core within this module, package by package, default build
// only (no mutation-oracle files, no tests), minus the simulated
// hardware. It checks the paper's shape: the TCB stays under the
// 10K-line budget and is a small fraction of everything under
// internal/ — "an isolation monitor or microkernel is expected to be
// orders of magnitude smaller, e.g., thousands of lines of code instead
// of millions, than a typical monolithic kernel or hypervisor" (§3.5).
func runC1(cfg Config, res *Result) error {
	res.Columns = []string{"package", "LoC", "in TCB"}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	closure, err := importClosure(root, "internal/core")
	if err != nil {
		return err
	}
	var tcb, linked int
	for _, p := range closure {
		n, err := countGoLines(filepath.Join(root, p))
		if err != nil {
			return err
		}
		linked += n
		if why, ok := simulated[p]; ok {
			res.row(p, fmt.Sprintf("%d", n), "no: "+why)
			continue
		}
		tcb += n
		res.row(p, fmt.Sprintf("%d", n), "yes")
	}
	var total int
	err = filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		n, err := countGoLines(path)
		total += n
		return err
	})
	if err != nil {
		return err
	}
	res.row("rest of internal/", fmt.Sprintf("%d", total-linked), "no")
	res.row("TOTAL (internal/)", fmt.Sprintf("%d", total), "")
	res.row("TCB (what internal/core links)", fmt.Sprintf("%d", tcb), "yes")
	res.metric("tcb_lines", float64(tcb))
	res.metric("total_lines", float64(total))
	res.note("non-blank non-test .go lines of the default build; the TCB is the import closure of internal/core, what a verifier trusts after attestation")
	res.note("the simulated hardware replaces silicon, not monitor code; Linux-class kernels it hosts are millions of lines")
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

// goFiles lists the package directory's non-test Go files in the
// default build: a file whose build constraint names an unset tag (a
// mutation oracle) is not linked, so it is not counted.
func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if ok {
			out = append(out, filepath.Join(dir, name))
		}
	}
	return out, nil
}

// importClosure returns pkg and every package of this module it
// imports, directly or not, as sorted root-relative paths, reading the
// imports with go/parser. The closure does not descend into the
// simulated hardware.
func importClosure(root, pkg string) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	line, _, _ := bytes.Cut(mod, []byte("\n"))
	prefix := strings.TrimSpace(strings.TrimPrefix(string(line), "module")) + "/"
	seen := map[string]bool{pkg: true}
	for todo := []string{pkg}; len(todo) > 0; {
		p := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if _, ok := simulated[p]; ok {
			continue
		}
		files, err := goFiles(filepath.Join(root, p))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
			if err != nil {
				return nil, err
			}
			for _, imp := range af.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if dep, ok := strings.CutPrefix(path, prefix); ok && !seen[dep] {
					seen[dep] = true
					todo = append(todo, dep)
				}
			}
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	slices.Sort(out)
	return out, nil
}

// countGoLines counts the non-blank lines of the package directory's
// default-build non-test Go files.
func countGoLines(dir string) (int, error) {
	files, err := goFiles(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1024*1024), 1024*1024)
		for sc.Scan() {
			if strings.TrimSpace(sc.Text()) != "" {
				total++
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return 0, err
		}
	}
	return total, nil
}
