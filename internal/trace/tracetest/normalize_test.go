package tracetest

import (
	"strings"
	"testing"

	"github.com/tyche-sim/tyche/internal/trace"
)

func TestNormalizeFoldsAcks(t *testing.T) {
	// One round for domains 5 and 6 targeting cores 0 and 1: the same
	// logical run on a 2- and an 8-core machine.
	mk := func(cores int) []trace.Event {
		tr := trace.New(cores, 0, nil)
		tr.Emit(trace.GlobalCore, trace.KBoot, 0, 0, 0, 0, uint64(cores))
		tr.Emit(trace.GlobalCore, trace.KOpBegin, 1, trace.OpRevoke, 0, 0, 0)
		tr.Emit(trace.GlobalCore, trace.KShootdown, 5, 0b11, 0, 0x2000, 4096)
		tr.Emit(trace.GlobalCore, trace.KShootdownFor, 6, 0, 0, 0x2000, 4096)
		for c := 0; c < 2; c++ {
			tr.Emit(trace.GlobalCore, trace.KShootdownAck, 0, uint64(c), 0, 0x2000, 4096)
		}
		tr.Emit(trace.GlobalCore, trace.KOpEnd, 1, trace.OpRevoke, 0, 0, 0)
		return tr.Events()
	}
	a := Normalize(mk(2))
	b := Normalize(mk(8))
	if a != b {
		t.Fatalf("normalized traces differ across core counts:\n--- 2 cores\n%s--- 8 cores\n%s", a, b)
	}
	if !strings.Contains(a, "shootdown dom=5,6 targets=0x3 full=0 addr=0x2000 size=4096 acks=all") {
		t.Fatalf("expected one folded round line, got:\n%s", a)
	}
	// A partial acknowledgement must stay visible.
	tr := trace.New(2, 0, nil)
	tr.Emit(trace.GlobalCore, trace.KShootdown, 5, 0b11, 0, 0x2000, 4096)
	tr.Emit(trace.GlobalCore, trace.KShootdownAck, 0, 0, 0, 0x2000, 4096)
	if n := Normalize(tr.Events()); !strings.Contains(n, "acks=1/2") {
		t.Fatalf("partial acks not visible:\n%s", n)
	}
}

func TestNormalizeCanonicalisesNodeIDs(t *testing.T) {
	// Absolute node IDs depend on how many core nodes boot allocated;
	// the same logical run on a bigger machine shifts them all.
	mk := func(base uint64) []trace.Event {
		tr := trace.New(1, 0, nil)
		tr.Emit(trace.GlobalCore, trace.KShare, 1, 2, base, 0x1000, 4096)
		tr.Emit(trace.GlobalCore, trace.KGrant, 1, 3, base+5, 0x2000, 4096)
		tr.Emit(trace.GlobalCore, trace.KRevoke, 1, 0, base, 0, 0)
		return tr.Events()
	}
	a, b := Normalize(mk(10)), Normalize(mk(42))
	if a != b {
		t.Fatalf("node IDs not canonicalised:\n--- base 10\n%s--- base 42\n%s", a, b)
	}
	if !strings.Contains(a, "node=#0") || !strings.Contains(a, "node=#1") {
		t.Fatalf("expected dense #k aliases, got:\n%s", a)
	}
	// A trap's Node field is a PC, not a node ID — it must stay literal.
	tr := trace.New(1, 0, nil)
	tr.Emit(0, trace.KTrap, 1, 2, 0x4000, 0, 0)
	if n := Normalize(tr.Events()); !strings.Contains(n, "node=16384") {
		t.Fatalf("trap PC was rewritten:\n%s", n)
	}
}
