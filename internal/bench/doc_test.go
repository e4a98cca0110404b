package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestExperimentsDocMatchesRecord holds the three copies of every claim
// to one: the committed BENCH.json's verdicts must be what the gate
// tables give over that file's own metrics, and each experiment's block
// in EXPERIMENTS.md must be its gate table rendered over the file, byte
// for byte, as must the status line and C1's package table and
// "Measured" sentence. A failure prints the text the doc should carry.
func TestExperimentsDocMatchesRecord(t *testing.T) {
	blob, err := os.ReadFile("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct{ Results []*Result }
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	byID := map[string]*Result{}
	passed, checks, clean := 0, 0, 0
	for _, r := range rec.Results {
		byID[r.ID] = r
		passed += len(r.Checks) - len(r.Failed())
		checks += len(r.Checks)
		if len(r.Failed()) == 0 {
			clean++
		}
	}
	status := fmt.Sprintf("<!-- status -->\n**%d/%d experiments, %d/%d shape checks pass** in `BENCH.json`.\n<!-- /status -->",
		clean, len(rec.Results), passed, checks)
	if !strings.Contains(doc, status) {
		t.Errorf("EXPERIMENTS.md's status block should read:\n%s", status)
	}
	t.Run("C1 table", func(t *testing.T) {
		r := byID["C1"]
		if r == nil {
			t.Fatal("BENCH.json has no result for C1")
		}
		for _, want := range c1DocText(t, r.Rows) {
			if !strings.Contains(doc, want) {
				t.Errorf("EXPERIMENTS.md's C1 section differs from BENCH.json's C1 rows; it should read:\n%s", want)
			}
		}
	})
	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			r := byID[e.ID]
			if r == nil {
				t.Fatalf("BENCH.json has no result for %s", e.ID)
			}
			got := &Result{Metrics: r.Metrics, Sweeps: r.Sweeps}
			e.evaluate(got)
			if !reflect.DeepEqual(got.Checks, r.Checks) {
				for i := range max(len(got.Checks), len(r.Checks)) {
					var g, w Check
					if i < len(got.Checks) {
						g = got.Checks[i]
					}
					if i < len(r.Checks) {
						w = r.Checks[i]
					}
					if g != w {
						t.Fatalf("BENCH.json check %d of %s is %+v; the gate table over its metrics gives %+v", i, e.ID, w, g)
					}
				}
			}
			var sb strings.Builder
			e.WriteGates(&sb, r)
			block := fmt.Sprintf("<!-- gates %s -->\n%s<!-- /gates %s -->", e.ID, sb.String(), e.ID)
			if !strings.Contains(doc, block) {
				t.Errorf("EXPERIMENTS.md's gate block for %s differs from its gate table over BENCH.json; it should read:\n%s", e.ID, block)
			}
		})
	}
}

// c1DocRows is EXPERIMENTS.md's C1 package table: each line's label, the
// BENCH.json C1 rows (by their first cell) whose line counts it sums,
// and its "in TCB" cell.
var c1DocRows = []struct {
	label string
	rows  []string
	tcb   string
}{
	{"internal/cap", []string{"internal/cap"}, "yes"},
	{"internal/core", []string{"internal/core"}, "yes"},
	{"internal/backend (+ pmp, vtx)", []string{"internal/backend", "internal/backend/pmp", "internal/backend/vtx"}, "yes"},
	{"internal/trace", []string{"internal/trace"}, "yes"},
	{"internal/phys", []string{"internal/phys"}, "yes"},
	{"internal/codec", []string{"internal/codec"}, "yes"},
	{"internal/hw, internal/tpm", []string{"internal/hw", "internal/tpm"}, "no: simulated hardware and TPM"},
	{"**TCB total**", []string{c1TCBRow}, ""},
	{"rest of internal/ (scheduler, libraries, OS kit, fleet, rv, experiments, …)", []string{"rest of internal/"}, "no"},
}

// The C1 rows that total the others.
const (
	c1TCBRow   = "TCB (what internal/core links)"
	c1TotalRow = "TOTAL (internal/)"
)

// c1DocText renders, from BENCH.json's C1 rows, the package table and
// the "Measured" sentence EXPERIMENTS.md's C1 section must carry. Every
// package row must be summed into exactly one line of the table, and a
// line marked in the TCB only sums rows marked so, so a package entering
// or leaving what the monitor links fails here until the table follows.
func c1DocText(t *testing.T, rows [][]string) []string {
	t.Helper()
	loc := map[string]int{}
	inTCB := map[string]bool{}
	for _, r := range rows {
		n, err := strconv.Atoi(r[1])
		if err != nil {
			t.Fatalf("C1 row %q: %v", r, err)
		}
		loc[r[0]], inTCB[r[0]] = n, r[2] == "yes"
	}
	used := map[string]bool{c1TotalRow: true}
	var sb strings.Builder
	sb.WriteString("| package | LoC | in TCB |\n|---|---|---|\n")
	for _, d := range c1DocRows {
		sum := 0
		for _, name := range d.rows {
			n, ok := loc[name]
			if !ok || used[name] {
				t.Fatalf("C1 doc line %q sums row %q, which BENCH.json lacks or another line sums", d.label, name)
			}
			if name != c1TCBRow && inTCB[name] != (d.tcb == "yes") {
				t.Fatalf("C1 doc line %q (in TCB %q) sums row %q, whose TCB cell differs", d.label, d.tcb, name)
			}
			used[name] = true
			sum += n
		}
		cell := spacedThousands(sum)
		if d.tcb == "" {
			cell = "**" + cell + "**"
		}
		sb.WriteString(strings.TrimRight(fmt.Sprintf("| %s | %s | %s", d.label, cell, d.tcb), " ") + " |\n")
	}
	for name := range loc {
		if !used[name] {
			t.Fatalf("BENCH.json's C1 row %q is on no line of the doc's table", name)
		}
	}
	measured := fmt.Sprintf("**Measured:** TCB = %s non-blank non-test lines\n"+
		"of the one build, counted as what the monitor links: the import\n"+
		"closure of `internal/core`, read from the source tree with go/parser,\n"+
		"minus the simulated hardware (`hw`, `tpm`). That is under both the\n"+
		"10 k budget and half of everything under `internal/` (%s). ✓",
		spacedThousands(loc[c1TCBRow]), spacedThousands(loc[c1TotalRow]))
	return []string{sb.String(), measured}
}

// spacedThousands writes n as EXPERIMENTS.md's prose does: groups of
// three digits separated by a space (5 710, 19 954).
func spacedThousands(n int) string {
	s := strconv.Itoa(n)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + " " + s[i:]
	}
	return s
}
