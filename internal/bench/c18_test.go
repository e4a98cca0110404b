package bench

import (
	"strings"
	"testing"
)

// TestC18LockScalability is the CI entry point for the lock-contention
// job (`go test -run C18 -mutexprofile ...`): it runs the full C18
// sweep so the mutex profile captures the monitor's contention
// behaviour under both workloads at every core count, and requires
// every shape check to pass.
func TestC18LockScalability(t *testing.T) {
	e, ok := Lookup("C18")
	if !ok {
		t.Fatal("C18 not registered")
	}
	cfg := Config{Seed: 1, Quick: testing.Short()}
	res, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Render(&sb)
	t.Log(sb.String())
	for _, c := range res.Failed() {
		t.Errorf("C18 check %s failed: %s", c.Name, c.Detail)
	}
}
