package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

// parityWorld is one of TestVerbParityTrapVsRing's two identical
// worlds: dom0 with a "VMCALL; HLT" stub and a registered ring, a live
// worker, a dead domain, and a capability dom0 does not own.
type parityWorld struct {
	m    *Monitor
	ck   *check.Checker
	base phys.Addr // the ring
	ids  parityIDs
	seq  uint64 // trace sequence number of the last event seen
	// issue runs one verb by this world's path.
	issue func(t *testing.T, w *parityWorld, desc [6]uint64) (status, result uint64)
}

type parityIDs struct {
	node, foreign   cap.NodeID
	worker, deadDom DomainID
}

const (
	parityStub        = phys.Addr(4 * pg)
	parityRingEntries = 4
)

func newParityWorld(t *testing.T) *parityWorld {
	t.Helper()
	w := &parityWorld{}
	w.m, w.ck = bootTracedWorld(t, BackendVTX)
	m, ids := w.m, &w.ids
	ids.node = dom0MemNode(t, m)
	var err error
	if ids.worker, err = m.CreateDomain(InitialDomain, "worker"); err != nil {
		t.Fatal(err)
	}
	if ids.deadDom, err = m.CreateDomain(InitialDomain, "dead"); err != nil {
		t.Fatal(err)
	}
	if err := m.KillDomain(InitialDomain, ids.deadDom); err != nil {
		t.Fatal(err)
	}
	if ids.foreign, err = m.Share(InitialDomain, ids.node, ids.worker, memRes(300, 1), cap.MemRW, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	a := hw.NewAsm()
	a.Vmcall().Hlt()
	if err := m.CopyInto(InitialDomain, parityStub, a.MustAssemble(parityStub)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, InitialDomain, parityStub); err != nil {
		t.Fatal(err)
	}
	w.base = ringAt(t, m, InitialDomain, 8, parityRingEntries)
	return w
}

// byTrap issues desc as one VMCALL from dom0 on core 0. The status is
// r0; the result is r1 if the call wrote it, else 0 — what a completion
// carries for a verb that yields nothing.
func byTrap(t *testing.T, w *parityWorld, desc [6]uint64) (status, result uint64) {
	t.Helper()
	c := w.m.Machine().Core(0)
	copy(c.Regs[:6], desc[:])
	if res, err := w.m.RunCore(0, 10); err != nil || res.Trap.Kind != hw.TrapHalt {
		t.Fatalf("run = %v, %v", res.Trap, err)
	}
	if c.Regs[1] != desc[1] {
		result = c.Regs[1]
	}
	return c.Regs[0], result
}

// byRing issues desc as a one-descriptor ring flush.
func byRing(t *testing.T, w *parityWorld, desc [6]uint64) (status, result uint64) {
	t.Helper()
	tail, err := w.m.Machine().Mem.Read64(w.base + RingOffSQTail)
	if err != nil {
		t.Fatal(err)
	}
	enqueue(t, w.m, w.base, parityRingEntries, desc[:]...)
	if n, err := w.m.RingFlush(InitialDomain); err != nil || n != 1 {
		t.Fatalf("flush = %d, %v", n, err)
	}
	return completion(t, w.m, w.base, parityRingEntries, tail)
}

// pathOnly are the event kinds that say how a verb arrived, not what it
// did: the trap and its VMCALL, the batch and round brackets.
var pathOnly = map[trace.Kind]bool{
	trace.KVMCall: true, trace.KTrap: true,
	trace.KBatchBegin: true, trace.KBatchEnd: true,
	trace.KDrainBegin: true, trace.KDrainEnd: true,
}

// effect runs one verb and returns everything it did that the other
// path must reproduce: status and result, the Stats() delta outside
// VMExits and Ring*, and the events it emitted, path brackets dropped
// and operation-frame tokens (minted per path) blanked.
func (w *parityWorld) effect(t *testing.T, desc [6]uint64) string {
	t.Helper()
	// The trap arm needs dom0 installed with a clean register file; the
	// launch is setup, not part of the verb, in either world.
	if err := w.m.Launch(InitialDomain, 0); err != nil {
		t.Fatal(err)
	}
	for _, ev := range w.m.Machine().Tracer().Events() {
		w.seq = max(w.seq, ev.Seq)
	}
	before := w.m.Stats()
	status, result := w.issue(t, w, desc)
	after := w.m.Stats()

	var delta Stats
	bv, av, dv := reflect.ValueOf(before), reflect.ValueOf(after), reflect.ValueOf(&delta).Elem()
	for i := 0; i < dv.NumField(); i++ {
		dv.Field(i).SetUint(av.Field(i).Uint() - bv.Field(i).Uint())
	}
	delta.VMExits = 0
	delta.RingOps, delta.RingFlushes, delta.RingShootdowns, delta.RingOpsCoalesced, delta.RingDrainErrors = 0, 0, 0, 0, 0

	out := fmt.Sprintf("status=%d result=%d\nstats=%+v\n", status, result, delta)
	for _, ev := range w.m.Machine().Tracer().Events() {
		if ev.Seq <= w.seq || pathOnly[ev.Kind] {
			continue
		}
		if ev.Kind == trace.KOpBegin || ev.Kind == trace.KOpEnd {
			ev.Node = 0
		}
		out += fmt.Sprintf("%s dom=%d aux=%d node=%d addr=%#x size=%d\n", ev.Kind, ev.Domain, ev.Aux, ev.Node, ev.Addr, ev.Size)
	}
	return out
}

// TestVerbParityTrapVsRing: a guest verb has one body (execVerb), so it
// must not matter how it arrives. Two identical worlds run the same
// table — every ring-eligible verb in its OK and denied forms — one by
// VMCALL, the other by one-descriptor ring flushes, and after every row
// the status and result, the capability tree, the Stats() delta outside
// VMExits/Ring* and the events inside the verb must be equal. CallRevoke
// is the one ring-eligible verb whose paths differ by design (the ring
// defers the retire to the round); TestRingBatchOfOneShootdownParity is
// its row. The transfer and ring-management verbs are trap-only: from a
// ring each is StatusBadCall and changes nothing.
func TestVerbParityTrapVsRing(t *testing.T) {
	tw, rw := newParityWorld(t), newParityWorld(t)
	tw.issue, rw.issue = byTrap, byRing
	rwx := uint64(cap.MemRW)
	w := tw.ids
	if rw.ids != w {
		t.Fatalf("the two worlds did not come up identical: %+v vs %+v", w, rw.ids)
	}
	rows := []struct {
		name string
		desc [6]uint64
		want uint64
	}{
		{"selfid", [6]uint64{CallSelfID}, StatusOK},
		{"log", [6]uint64{CallLog, 0xbeef}, StatusOK},
		{"enumerate", [6]uint64{CallEnumerateLen}, StatusOK},
		{"share", [6]uint64{CallShare, uint64(w.node), uint64(w.worker), 100 * pg, pg, rwx}, StatusOK},
		{"grant", [6]uint64{CallGrant, uint64(w.node), uint64(w.worker), 120 * pg, pg, rwx}, StatusOK},
		{"enumerate-after", [6]uint64{CallEnumerateLen}, StatusOK},
		{"share-bad-node", [6]uint64{CallShare, 99999, uint64(w.worker), 130 * pg, pg, rwx}, StatusDenied},
		{"share-dead-dst", [6]uint64{CallShare, uint64(w.node), uint64(w.deadDom), 130 * pg, pg, rwx}, StatusDenied},
		{"grant-unknown-dst", [6]uint64{CallGrant, uint64(w.node), 4242, 130 * pg, pg, rwx}, StatusDenied},
		{"share-foreign-cap", [6]uint64{CallShare, uint64(w.foreign), uint64(w.worker), 300 * pg, pg, rwx}, StatusDenied},
		{"grant-taken-region", [6]uint64{CallGrant, uint64(w.node), uint64(w.worker), 120 * pg, pg, rwx}, StatusDenied},
		{"attest", [6]uint64{CallAttest, 42}, StatusOK},
		{"unknown-verb", [6]uint64{0xdead, 1, 2, 3, 4, 5}, StatusBadCall},
		{"seal", [6]uint64{CallSealSelf}, StatusOK},
		{"seal-twice", [6]uint64{CallSealSelf}, StatusDenied},
		{"attest-sealed", [6]uint64{CallAttest, 43}, StatusOK},
	}
	for _, row := range rows {
		trap, ring := tw.effect(t, row.desc), rw.effect(t, row.desc)
		if trap != ring {
			t.Errorf("%s: the paths differ\n--- by VMCALL:\n%s--- by ring:\n%s", row.name, trap, ring)
		}
		if want := fmt.Sprintf("status=%d ", row.want); trap[:len(want)] != want {
			t.Errorf("%s: %s want %s", row.name, trap[:len(want)], want)
		}
		if a, b := tw.m.LineageTree(), rw.m.LineageTree(); a != b {
			t.Fatalf("%s: capability trees diverged\n--- by VMCALL:\n%s--- by ring:\n%s", row.name, a, b)
		}
		if a, b := fmt.Sprint(tw.m.RefCounts()), fmt.Sprint(rw.m.RefCounts()); a != b {
			t.Fatalf("%s: reference counts diverged: %s vs %s", row.name, a, b)
		}
	}
	td, _ := tw.m.Domain(InitialDomain)
	rd, _ := rw.m.Domain(InitialDomain)
	if a, b := fmt.Sprint(td.Log(), td.State()), fmt.Sprint(rd.Log(), rd.State()); a != b {
		t.Fatalf("dom0 ended as %s by VMCALL, %s by ring", a, b)
	}

	// Trap-only verbs: refused by a ring, one completion each, nothing
	// moved.
	tree := rw.m.LineageTree()
	for _, verb := range []uint64{CallDomainCall, CallReturn, CallFastSwitch, CallYield, CallRingSetup, CallRingFlush} {
		got := rw.effect(t, [6]uint64{verb, uint64(w.worker), parityRingEntries})
		if want := fmt.Sprintf("status=%d result=0\nstats=%+v\n", StatusBadCall, Stats{}); got != want {
			t.Errorf("verb %d from a ring:\n%swant\n%s", verb, got, want)
		}
	}
	if rw.m.LineageTree() != tree {
		t.Fatal("a refused verb changed the capability tree")
	}
	assertTraceClean(t, tw.m, tw.ck)
	assertTraceClean(t, rw.m, rw.ck)
}
