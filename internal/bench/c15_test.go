package bench

import (
	"strings"
	"testing"
)

// TestC15ContentionSweep is the CI entry point for the lock-contention
// job (`go test -run '^TestC15ContentionSweep$' -mutexprofile ...`): it
// runs the full C15 sweep so the mutex profile captures the monitor's
// contention behaviour under both workloads at every core count, and
// requires every shape check to pass.
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
