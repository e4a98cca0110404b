package bench

import (
	"strings"
	"testing"
)

// TestC15ContentionSweep runs the full C15 sweep — both workloads at 1,
// 2, 4 and 8 cores, where the quick sweep of TestExperimentsPassAllChecks
// stops at 1 and 4 — and requires every shape check to pass.
func TestC15ContentionSweep(t *testing.T) {
	e, ok := Lookup("C15")
	if !ok {
		t.Fatal("C15 not registered")
	}
	res, err := e.Run(Config{Seed: 1, Quick: testing.Short()})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Render(&sb)
	t.Log(sb.String())
	for _, c := range res.Failed() {
		t.Errorf("C15 check %s failed: %s", c.Name, c.Detail)
	}
}
