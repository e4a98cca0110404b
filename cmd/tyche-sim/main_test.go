package main

import "testing"

// TestRunRefusesEmptyMachine: -cores and -mem below 1 are errors, not
// the default 4-core, 32 MiB machine that tyche.Options' zero value
// boots.
func TestRunRefusesEmptyMachine(t *testing.T) {
	for _, tc := range []struct {
		flags string
		mem   uint64
		cores int
	}{
		{"-cores 0", 32, 0},
		{"-cores -1", 32, -1},
		{"-mem 0", 0, 4},
	} {
		if err := run("vtx", tc.mem, tc.cores, "", 0, "", 0, false, ""); err == nil {
			t.Errorf("tyche-sim %s ran the demo; want an error", tc.flags)
		}
	}
}
