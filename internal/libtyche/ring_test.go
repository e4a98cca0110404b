package libtyche

import (
	"encoding/binary"
	"errors"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
)

// TestRingEnqueueFlushReap: the happy path — enqueue a mixed batch, one
// flush, completions come back in submission order.
func TestRingEnqueueFlushReap(t *testing.T) {
	c := world(t, core.BackendVTX)
	r, err := c.NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Enqueue(core.CallSelfID); err != nil {
		t.Fatal(err)
	}
	if err := r.Enqueue(core.CallLog, 0xabc); err != nil {
		t.Fatal(err)
	}
	if err := r.Enqueue(core.CallEnumerateLen); err != nil {
		t.Fatal(err)
	}
	n, err := r.Flush()
	if err != nil || n != 3 {
		t.Fatalf("Flush = %d, %v", n, err)
	}
	cs, err := r.Reap()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 3 {
		t.Fatalf("reaped %d completions, want 3", len(cs))
	}
	if cs[0].Status != core.StatusOK || cs[0].Result != uint64(core.InitialDomain) {
		t.Fatalf("selfid completion = %+v", cs[0])
	}
	if cs[1].Status != core.StatusOK || cs[2].Status != core.StatusOK {
		t.Fatalf("completions = %+v", cs)
	}
	if cs[2].Result == 0 {
		t.Fatal("enumerate returned no resources")
	}
	// Reap is a cursor, not a snapshot: nothing left to reap.
	if again, _ := r.Reap(); len(again) != 0 {
		t.Fatalf("second reap returned %d completions", len(again))
	}
}

// TestRingBackpressureFallsBackToSync is the contract the guest relies
// on: a full ring reports ErrRingFull and the very same operation still
// works down the synchronous path; after a flush the ring takes
// submissions again.
func TestRingBackpressureFallsBackToSync(t *testing.T) {
	c := world(t, core.BackendVTX)
	const entries = 4
	r, err := c.NewRing(entries)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < entries; i++ {
		if err := r.Enqueue(core.CallLog, i); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	err = r.Enqueue(core.CallLog, 99)
	if !errors.Is(err, ErrRingFull) {
		t.Fatalf("overflow enqueue err = %v, want ErrRingFull", err)
	}
	// Fall back to the synchronous path for the overflow operation: the
	// trap-per-op route is always available.
	if _, err := c.mon.Attest(c.self, []byte("sync-fallback")); err != nil {
		t.Fatalf("sync fallback: %v", err)
	}
	n, err := r.Flush()
	if err != nil || n != entries {
		t.Fatalf("Flush = %d, %v", n, err)
	}
	// Backpressure released: the rejected operation now fits.
	if err := r.Enqueue(core.CallLog, 99); err != nil {
		t.Fatalf("post-flush enqueue: %v", err)
	}
	if n, err := r.Flush(); err != nil || n != 1 {
		t.Fatalf("second Flush = %d, %v", n, err)
	}
	d, err := c.mon.Domain(core.InitialDomain)
	if err != nil {
		t.Fatal(err)
	}
	log := d.Log()
	if len(log) != entries+1 || log[entries] != 99 {
		t.Fatalf("log = %v, want %d entries ending in 99", log, entries+1)
	}
}

// TestRingBatchedShareGrant: delegations issued through the ring carry
// the same capability semantics as the synchronous API.
func TestRingBatchedShareGrant(t *testing.T) {
	c := world(t, core.BackendVTX)
	worker, err := c.mon.CreateDomain(core.InitialDomain, "worker")
	if err != nil {
		t.Fatal(err)
	}
	region, err := c.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Enqueue(core.CallShare, uint64(c.heapNode), uint64(worker),
		uint64(region.Start), region.Size(), uint64(cap.MemRW)); err != nil {
		t.Fatal(err)
	}
	if n, err := r.Flush(); err != nil || n != 1 {
		t.Fatalf("Flush = %d, %v", n, err)
	}
	cs, err := r.Reap()
	if err != nil || len(cs) != 1 {
		t.Fatalf("Reap = %v, %v", cs, err)
	}
	if cs[0].Status != core.StatusOK || cs[0].Result == 0 {
		t.Fatalf("share completion = %+v", cs[0])
	}
	if !c.mon.CheckAccess(worker, region.Start, cap.RightRead) {
		t.Fatal("batched share did not reach the worker")
	}
	// The returned node is live capability state: revoking it synchronously
	// takes the access away again.
	if err := c.mon.Revoke(core.InitialDomain, cap.NodeID(cs[0].Result)); err != nil {
		t.Fatal(err)
	}
	if c.mon.CheckAccess(worker, region.Start, cap.RightRead) {
		t.Fatal("revoke of ring-minted node did not stick")
	}
}

// TestRingReapRefusesOverrunTail: the completion tail is a word of guest
// memory, so the domain itself can overrun it. Reap then refuses with
// ErrCQOverrun and consumes nothing; once the word is sane again the
// same completions come back, including a span that wraps past the last
// slot (two reads).
func TestRingReapRefusesOverrunTail(t *testing.T) {
	c := world(t, core.BackendVTX)
	const entries = 4
	r, err := c.NewRing(entries)
	if err != nil {
		t.Fatal(err)
	}
	batch := func() {
		t.Helper()
		for _, verb := range []uint64{core.CallLog, core.CallSelfID, core.CallEnumerateLen} {
			if err := r.Enqueue(verb, 7); err != nil {
				t.Fatal(err)
			}
		}
		if n, err := r.Flush(); err != nil || n != 3 {
			t.Fatalf("Flush = %d, %v", n, err)
		}
	}
	setTail := func(v uint64) {
		t.Helper()
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], v)
		if err := c.Write(r.Base()+core.RingOffCQTail, w[:]); err != nil {
			t.Fatal(err)
		}
	}
	batch()
	if cs, err := r.Reap(); err != nil || len(cs) != 3 {
		t.Fatalf("first Reap = %v, %v", cs, err)
	}
	// Slots 3, 0, 1: the span wraps. Then an overrun tail, a far
	// overrun and one behind the cursor.
	batch()
	for _, tail := range []uint64{3 + 3 + entries + 1, 1 << 63, 2} {
		setTail(tail)
		if cs, err := r.Reap(); !errors.Is(err, ErrCQOverrun) || cs != nil {
			t.Fatalf("Reap with tail %d = %v, %v; want ErrCQOverrun", tail, cs, err)
		}
	}
	setTail(6)
	cs, err := r.Reap()
	if err != nil || len(cs) != 3 {
		t.Fatalf("Reap after the overruns = %v, %v; want the batch's 3 completions", cs, err)
	}
	if cs[0].Status != core.StatusOK || cs[1].Result != uint64(core.InitialDomain) || cs[2].Result == 0 {
		t.Fatalf("wrapped completions = %+v, want log, selfid, enumerate in order", cs)
	}
	if again, err := r.Reap(); err != nil || len(again) != 0 {
		t.Fatalf("Reap after consuming = %v, %v", again, err)
	}
}
