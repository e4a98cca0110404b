package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestExperimentsDocMatchesRecord holds the three copies of every claim
// to one: the committed BENCH.json's verdicts must be what the gate
// tables give over that file's own metrics, and each experiment's block
// in EXPERIMENTS.md must be its gate table rendered over the file, byte
// for byte, as must the status line. A failure prints the block the doc
// should carry.
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
