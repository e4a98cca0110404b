package core

import (
	"errors"
	"slices"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// ringAt registers a ring for the domain at the given page, failing the
// test on error.
func ringAt(t *testing.T, m *Monitor, d DomainID, page, entries uint64) phys.Addr {
	t.Helper()
	base := phys.Addr(page * pg)
	if err := m.RingSetup(d, base, entries); err != nil {
		t.Fatalf("RingSetup: %v", err)
	}
	return base
}

// enqueue writes one descriptor with guest-level stores and publishes
// the new tail, returning it. Raw physical writes stand in for the
// stores interpreted guest code would issue.
func enqueue(t *testing.T, m *Monitor, base phys.Addr, entries uint64, desc ...uint64) {
	t.Helper()
	mem := m.Machine().Mem
	tail, err := mem.Read64(base + RingOffSQTail)
	if err != nil {
		t.Fatal(err)
	}
	off := base + phys.Addr(RingSQOff(entries, tail))
	for w := 0; w < 6; w++ {
		var v uint64
		if w < len(desc) {
			v = desc[w]
		}
		if err := mem.Write64(off+phys.Addr(8*w), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.Write64(base+RingOffSQTail, tail+1); err != nil {
		t.Fatal(err)
	}
}

// completion reads completion slot i.
func completion(t *testing.T, m *Monitor, base phys.Addr, entries, i uint64) (status, result uint64) {
	t.Helper()
	mem := m.Machine().Mem
	off := base + phys.Addr(RingCQOff(entries, i))
	st, err := mem.Read64(off)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mem.Read64(off + 8)
	if err != nil {
		t.Fatal(err)
	}
	return st, res
}

// TestRingSetupValidation: capacity and capability checks at
// registration time.
func TestRingSetupValidation(t *testing.T) {
	m, ck := bootTracedWorld(t, BackendVTX)
	for _, tc := range []struct {
		name    string
		caller  DomainID
		base    phys.Addr
		entries uint64
		ok      bool
	}{
		{"zero-capacity", InitialDomain, 8 * pg, 0, false},
		{"oversized", InitialDomain, 8 * pg, MaxRingEntries + 1, false},
		{"monitor-memory", InitialDomain, m.MonitorRegion().Start, 8, false},
		{"valid", InitialDomain, 8 * pg, 8, true},
		{"replace", InitialDomain, 16 * pg, 4, true},
	} {
		err := m.RingSetup(tc.caller, tc.base, tc.entries)
		if (err == nil) != tc.ok {
			t.Errorf("%s: RingSetup = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// The replace registration won: header initialised at the new base.
	if got, _ := m.Machine().Mem.Read64(16*pg + RingOffEntries); got != 4 {
		t.Fatalf("replacement ring header entries = %d, want 4", got)
	}
	assertTraceClean(t, m, ck)
}

// TestRingBatchExecutesVerbs drives a mixed batch — identity, log,
// share, grant, enumerate, attest — through one flush on both backends
// and checks every completion plus the batch bookkeeping.
func TestRingBatchExecutesVerbs(t *testing.T) {
	for _, kind := range []BackendKind{BackendVTX, BackendPMP} {
		t.Run(string(kind), func(t *testing.T) {
			m, ck := bootTracedWorld(t, kind)
			node := dom0MemNode(t, m)
			worker, err := m.CreateDomain(InitialDomain, "worker")
			if err != nil {
				t.Fatal(err)
			}
			const entries = 8
			base := ringAt(t, m, InitialDomain, 8, entries)
			enqueue(t, m, base, entries, CallSelfID)
			enqueue(t, m, base, entries, CallLog, 0xbeef)
			enqueue(t, m, base, entries, CallShare, uint64(node), uint64(worker),
				100*pg, 2*pg, uint64(cap.MemRW))
			enqueue(t, m, base, entries, CallGrant, uint64(node), uint64(worker),
				120*pg, pg, uint64(cap.MemRW))
			enqueue(t, m, base, entries, CallEnumerateLen)
			enqueue(t, m, base, entries, CallAttest, 42)

			if got := m.RingPending(InitialDomain); got != 6 {
				t.Fatalf("RingPending = %d, want 6", got)
			}
			n, err := m.RingFlush(InitialDomain)
			if err != nil {
				t.Fatalf("RingFlush: %v", err)
			}
			if n != 6 {
				t.Fatalf("flush executed %d, want 6", n)
			}
			if got := m.RingPending(InitialDomain); got != 0 {
				t.Fatalf("RingPending after flush = %d, want 0", got)
			}

			if st, res := completion(t, m, base, entries, 0); st != StatusOK || res != uint64(InitialDomain) {
				t.Fatalf("selfid completion = (%d, %d)", st, res)
			}
			if st, _ := completion(t, m, base, entries, 1); st != StatusOK {
				t.Fatalf("log completion status = %d", st)
			}
			st, shareNode := completion(t, m, base, entries, 2)
			if st != StatusOK || shareNode == 0 {
				t.Fatalf("share completion = (%d, %d)", st, shareNode)
			}
			if !m.CheckAccess(worker, 100*pg, cap.RightRead) {
				t.Fatal("batched share did not take effect")
			}
			if st, _ := completion(t, m, base, entries, 3); st != StatusOK {
				t.Fatalf("grant completion status = %d", st)
			}
			if m.CheckAccess(InitialDomain, 120*pg, cap.RightRead) {
				t.Fatal("batched grant left the granter with access")
			}
			if st, n := completion(t, m, base, entries, 4); st != StatusOK || n == 0 {
				t.Fatalf("enumerate completion = (%d, %d)", st, n)
			}
			// Dom0 is unsealed, so its measurement (and therefore the
			// returned first 8 bytes) is legitimately zero — the status
			// and the attest counter carry the assertion.
			if st, _ := completion(t, m, base, entries, 5); st != StatusOK {
				t.Fatalf("attest completion status = %d", st)
			}
			if got := m.Stats().Attests; got != 1 {
				t.Fatalf("Attests = %d, want 1", got)
			}
			if d, _ := m.Domain(InitialDomain); d.Log()[0] != 0xbeef {
				t.Fatal("batched log did not land")
			}

			stats := m.Stats()
			if stats.RingOps != 6 || stats.RingFlushes != 1 {
				t.Fatalf("RingOps=%d RingFlushes=%d, want 6/1", stats.RingOps, stats.RingFlushes)
			}
			assertTraceClean(t, m, ck)
		})
	}
}

// TestRingWraparound: free-running indices land descriptors and
// completions at slot i%entries across several flushes of a tiny ring.
func TestRingWraparound(t *testing.T) {
	m, ck := bootTracedWorld(t, BackendVTX)
	const entries = 4
	base := ringAt(t, m, InitialDomain, 8, entries)
	// 3 batches of 3 — index 9 > entries, so every slot gets reused at
	// least twice.
	for batch := uint64(0); batch < 3; batch++ {
		for k := uint64(0); k < 3; k++ {
			enqueue(t, m, base, entries, CallLog, batch*100+k)
		}
		n, err := m.RingFlush(InitialDomain)
		if err != nil || n != 3 {
			t.Fatalf("batch %d: flush = %d, %v", batch, n, err)
		}
		for k := uint64(0); k < 3; k++ {
			i := batch*3 + k
			if st, _ := completion(t, m, base, entries, i); st != StatusOK {
				t.Fatalf("completion %d status = %d", i, st)
			}
		}
	}
	d, _ := m.Domain(InitialDomain)
	log := d.Log()
	if len(log) != 9 || log[0] != 0 || log[8] != 202 {
		t.Fatalf("log = %v, want 9 entries ending in 202", log)
	}
	// The header mirrors caught up with the free-running index.
	if head, _ := m.Machine().Mem.Read64(base + RingOffSQHead); head != 9 {
		t.Fatalf("mirrored sqHead = %d, want 9", head)
	}
	if st := m.Stats(); st.RingOps != 9 || st.RingFlushes != 3 {
		t.Fatalf("RingOps=%d RingFlushes=%d, want 9/3", st.RingOps, st.RingFlushes)
	}
	assertTraceClean(t, m, ck)
}

// TestRingMalformedDescriptor: a bad verb and an out-of-range operation
// fail their own completions without poisoning the rest of the batch.
func TestRingMalformedDescriptor(t *testing.T) {
	m, ck := bootTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	worker, err := m.CreateDomain(InitialDomain, "worker")
	if err != nil {
		t.Fatal(err)
	}
	const entries = 8
	base := ringAt(t, m, InitialDomain, 8, entries)
	enqueue(t, m, base, entries, CallSelfID)
	enqueue(t, m, base, entries, 0xdead) // unknown verb
	// Transfer verbs are not ring-eligible (they change which domain
	// runs); they must fail cleanly, not wedge the drain.
	enqueue(t, m, base, entries, CallDomainCall, uint64(worker))
	// A share of memory dom0 does not own (the monitor region).
	enqueue(t, m, base, entries, CallShare, uint64(node), uint64(worker),
		uint64(m.MonitorRegion().Start), pg, uint64(cap.MemRW))
	enqueue(t, m, base, entries, CallLog, 7)

	n, err := m.RingFlush(InitialDomain)
	if err != nil {
		t.Fatalf("RingFlush: %v", err)
	}
	if n != 5 {
		t.Fatalf("flush executed %d, want 5", n)
	}
	want := []uint64{StatusOK, StatusBadCall, StatusBadCall, StatusDenied, StatusOK}
	for i, w := range want {
		if st, _ := completion(t, m, base, entries, uint64(i)); st != w {
			t.Errorf("completion %d status = %d, want %d", i, st, w)
		}
	}
	if d, _ := m.Domain(InitialDomain); len(d.Log()) != 1 || d.Log()[0] != 7 {
		t.Fatal("op after the malformed descriptors did not execute")
	}
	assertTraceClean(t, m, ck)
}

// TestRingTailOverrun: a guest-corrupted tail that claims more pending
// descriptors than the ring holds denies the whole flush without
// consuming anything; a repaired tail flushes fine.
func TestRingTailOverrun(t *testing.T) {
	m, ck := bootTracedWorld(t, BackendVTX)
	const entries = 4
	base := ringAt(t, m, InitialDomain, 8, entries)
	enqueue(t, m, base, entries, CallLog, 1)
	mem := m.Machine().Mem
	if err := mem.Write64(base+RingOffSQTail, entries+3); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RingFlush(InitialDomain); !errors.Is(err, ErrDenied) {
		t.Fatalf("overrun flush err = %v, want denied", err)
	}
	if st := m.Stats(); st.RingOps != 0 {
		t.Fatalf("overrun flush consumed %d ops", st.RingOps)
	}
	// Repair the tail: the one legitimately enqueued descriptor drains.
	if err := mem.Write64(base+RingOffSQTail, 1); err != nil {
		t.Fatal(err)
	}
	n, err := m.RingFlush(InitialDomain)
	if err != nil || n != 1 {
		t.Fatalf("repaired flush = %d, %v", n, err)
	}
	assertTraceClean(t, m, ck)
}

// TestRingCoalescedShootdowns is the tentpole's perf invariant at the
// trace level: a batch of K TLB-cleanup revocations performs exactly
// ONE cross-core shootdown round, where the synchronous path performs
// K. Cycle-accounting follows: one TLBFlush charge per core per batch.
func TestRingCoalescedShootdowns(t *testing.T) {
	const K = 8
	m, ck := bootTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	worker, err := m.CreateDomain(InitialDomain, "worker")
	if err != nil {
		t.Fatal(err)
	}

	// Synchronous baseline: K share+revoke pairs, one shootdown each.
	syncNodes := make([]cap.NodeID, K)
	for i := range syncNodes {
		id, err := m.Share(InitialDomain, node, worker, memRes(uint64(200+2*i), 1), cap.MemRW, cap.CleanFlushTLB)
		if err != nil {
			t.Fatal(err)
		}
		syncNodes[i] = id
	}
	for _, id := range syncNodes {
		if err := m.Revoke(InitialDomain, id); err != nil {
			t.Fatal(err)
		}
	}
	syncSD := ck.Counts().Shootdowns
	if syncSD != K {
		t.Fatalf("sync baseline: %d shootdowns, want %d", syncSD, K)
	}

	// Batched arm: the same K revocations in one flush.
	const entries = 16
	base := ringAt(t, m, InitialDomain, 8, entries)
	batchNodes := make([]cap.NodeID, K)
	for i := range batchNodes {
		id, err := m.Share(InitialDomain, node, worker, memRes(uint64(240+2*i), 1), cap.MemRW, cap.CleanFlushTLB)
		if err != nil {
			t.Fatal(err)
		}
		batchNodes[i] = id
	}
	for _, id := range batchNodes {
		enqueue(t, m, base, entries, CallRevoke, uint64(id))
	}
	n, err := m.RingFlush(InitialDomain)
	if err != nil || n != K {
		t.Fatalf("flush = %d, %v", n, err)
	}
	for i := uint64(0); i < K; i++ {
		if st, _ := completion(t, m, base, entries, i); st != StatusOK {
			t.Fatalf("revoke completion %d status = %d", i, st)
		}
	}
	batchSD := ck.Counts().Shootdowns - syncSD
	if batchSD != 1 {
		t.Fatalf("batched arm: %d shootdown rounds, want exactly 1", batchSD)
	}
	st := m.Stats()
	if st.RingShootdowns != 1 || st.RingOpsCoalesced != K {
		t.Fatalf("RingShootdowns=%d RingOpsCoalesced=%d, want 1/%d",
			st.RingShootdowns, st.RingOpsCoalesced, K)
	}
	assertTraceClean(t, m, ck)
}

// TestRingAbortOnSelfDisarm: a batch that grants away its own ring
// memory aborts at that descriptor — the monitor never writes a
// completion into memory the owner no longer holds — and drops the
// registration.
func TestRingAbortOnSelfDisarm(t *testing.T) {
	m, ck := bootTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	worker, err := m.CreateDomain(InitialDomain, "worker")
	if err != nil {
		t.Fatal(err)
	}
	const entries = 8
	base := ringAt(t, m, InitialDomain, 8, entries)
	enqueue(t, m, base, entries, CallLog, 1)
	// Grant the ring's own page away: dom0 loses read+write mid-batch.
	enqueue(t, m, base, entries, CallGrant, uint64(node), uint64(worker),
		uint64(base), pg, uint64(cap.MemRW))
	enqueue(t, m, base, entries, CallLog, 2) // never executes

	n, err := m.RingFlush(InitialDomain)
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("self-disarm flush err = %v, want denied", err)
	}
	if n != 2 {
		t.Fatalf("executed %d before abort, want 2", n)
	}
	if d, _ := m.Domain(InitialDomain); len(d.Log()) != 1 {
		t.Fatalf("log = %v: descriptor after the disarm ran", d.Log())
	}
	// Registration dropped: the next flush reports no ring.
	if _, err := m.RingFlush(InitialDomain); !errors.Is(err, ErrDenied) {
		t.Fatalf("post-abort flush err = %v, want denied (no ring)", err)
	}
	assertTraceClean(t, m, ck)
}

// TestRingForceKillScrubsRing: ForceKill on a domain with queued
// descriptors never executes them, unregisters the ring, and scrubs
// the header — dead-domain silence extends to queued work. The trace
// oracle gates the whole sequence.
func TestRingForceKillScrubsRing(t *testing.T) {
	m, ck := bootTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	worker, err := m.CreateDomain(InitialDomain, "worker")
	if err != nil {
		t.Fatal(err)
	}
	// The worker's ring lives in memory granted exclusively to it.
	if _, err := m.Grant(InitialDomain, node, worker, memRes(300, 2), cap.MemRW, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	const entries = 8
	base := ringAt(t, m, worker, 300, entries)
	enqueue(t, m, base, entries, CallLog, 0x111)
	enqueue(t, m, base, entries, CallSealSelf)
	if got := m.RingPending(worker); got != 2 {
		t.Fatalf("RingPending = %d, want 2", got)
	}

	opsBefore := m.Stats().RingOps
	if err := m.ForceKill(worker); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().RingOps - opsBefore; got != 0 {
		t.Fatalf("%d queued descriptors executed across the kill", got)
	}
	if got := m.RingPending(worker); got != 0 {
		t.Fatalf("dead domain still reports %d pending", got)
	}
	// Header scrubbed: capacity and tail words zeroed.
	for _, off := range []uint64{RingOffEntries, RingOffSQTail} {
		if v, _ := m.Machine().Mem.Read64(base + phys.Addr(off)); v != 0 {
			t.Fatalf("header word +%d = %#x after kill, want 0", off, v)
		}
	}
	// A flush for the dead domain is refused, not silently absorbed.
	if _, err := m.RingFlush(worker); !errors.Is(err, ErrDead) {
		t.Fatalf("dead flush err = %v, want ErrDead", err)
	}
	// The worker sealed nothing: its queued seal never ran.
	if d, _ := m.Domain(worker); d.State() != StateDead {
		t.Fatalf("worker state = %v", d.State())
	}
	assertTraceClean(t, m, ck)
}

// TestRingTeardownSkipsScrubAfterGrantAway: a dying domain that granted
// its ring pages away no longer holds them, so the kill-path header
// scrub must not run — it would write into the surviving grantee's
// memory, a cross-domain write the drain path already refuses. The
// teardown revalidates the footprint (before revocation destroys the
// owner's records) and skips the scrub on loss.
func TestRingTeardownSkipsScrubAfterGrantAway(t *testing.T) {
	m, ck := bootTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	worker, err := m.CreateDomain(InitialDomain, "worker")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := m.CreateDomain(InitialDomain, "peer")
	if err != nil {
		t.Fatal(err)
	}
	wnode, err := m.Grant(InitialDomain, node, worker, memRes(300, 2), cap.MemRW|cap.RightGrant, cap.CleanNone)
	if err != nil {
		t.Fatal(err)
	}
	const entries = 8
	base := ringAt(t, m, worker, 300, entries)
	enqueue(t, m, base, entries, CallLog, 0x222)
	// The worker hands the ring pages to the peer wholesale and loses
	// all access; the stale registration survives until teardown.
	if _, err := m.Grant(worker, wnode, peer, memRes(300, 2), cap.MemRW, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := m.ForceKill(worker); err != nil {
		t.Fatal(err)
	}
	// The registration is gone but the peer's memory is untouched: the
	// header words the scrub would have zeroed still hold their values.
	if got := m.RingPending(worker); got != 0 {
		t.Fatalf("dead domain still reports %d pending", got)
	}
	if v, _ := m.Machine().Mem.Read64(base + RingOffEntries); v != entries {
		t.Fatalf("header entries = %d after kill, want %d (scrub wrote into the grantee's memory)", v, entries)
	}
	if v, _ := m.Machine().Mem.Read64(base + RingOffSQTail); v != 1 {
		t.Fatalf("header sqTail = %d after kill, want 1 (scrub wrote into the grantee's memory)", v)
	}
	assertTraceClean(t, m, ck)
}

// TestRingBatchOfOneShootdownParity: a single-revocation batch emits a
// shootdown indistinguishable (addr/size payload) from the synchronous
// path — the coalescer must not perturb the degenerate case the cycle
// bit-identity gate cares about.
func TestRingBatchOfOneShootdownParity(t *testing.T) {
	m, ck := bootTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	worker, err := m.CreateDomain(InitialDomain, "worker")
	if err != nil {
		t.Fatal(err)
	}
	// Sync arm.
	id, err := m.Share(InitialDomain, node, worker, memRes(200, 1), cap.MemRW, cap.CleanFlushTLB)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Revoke(InitialDomain, id); err != nil {
		t.Fatal(err)
	}
	// Batched arm, same region.
	const entries = 4
	base := ringAt(t, m, InitialDomain, 8, entries)
	id2, err := m.Share(InitialDomain, node, worker, memRes(200, 1), cap.MemRW, cap.CleanFlushTLB)
	if err != nil {
		t.Fatal(err)
	}
	enqueue(t, m, base, entries, CallRevoke, uint64(id2))
	if n, err := m.RingFlush(InitialDomain); err != nil || n != 1 {
		t.Fatalf("flush = %d, %v", n, err)
	}

	var sds []trace.Event
	for _, ev := range m.Machine().Tracer().Events() {
		if ev.Kind == trace.KShootdown {
			sds = append(sds, ev)
		}
	}
	if len(sds) != 2 {
		t.Fatalf("%d shootdowns, want 2", len(sds))
	}
	if sds[0].Addr != sds[1].Addr || sds[0].Size != sds[1].Size {
		t.Fatalf("batch-of-1 shootdown payload (%#x,+%d) differs from sync (%#x,+%d)",
			sds[1].Addr, sds[1].Size, sds[0].Addr, sds[0].Size)
	}
	assertTraceClean(t, m, ck)
}

// FuzzRingDescriptor writes fuzzed descriptors into a registered ring
// in guest memory — hostile bytes that never cross a wire — and drains
// them one doorbell each. Each descriptor is 8 bytes: verb, node,
// destination, start page (two bytes), pages, rights, cleanup, drawn
// into ranges where some land on real capabilities and domains. The
// drain must not panic; a flush fails only with the monitor's typed
// errors; every completion carries one of the ABI's status codes; and a
// descriptor the monitor rejects leaves the capability tree and the
// reference counts exactly as they were. The world is traced and must
// audit clean.
func FuzzRingDescriptor(f *testing.F) {
	// A share of the tenant's heap (node 7) to its peer (domain 3), its
	// revocation (the share is node 8), then garbage; a grant that
	// overruns the heap, then a verb the ring may not carry.
	f.Add([]byte{byte(CallShare), 7, 3, 0x90, 0, 1, byte(cap.MemRW), 0, byte(CallRevoke), 8, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{byte(CallGrant), 7, 3, 0xa8, 0, 7, byte(cap.MemRW), byte(cap.CleanObfuscate), byte(CallRingFlush), 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8*64 {
			t.Skip("bounded input size")
		}
		m, ck := bootTracedWorld(t, BackendVTX)
		node := dom0MemNode(t, m)
		tenant, err := m.CreateDomain(InitialDomain, "tenant")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.CreateDomain(InitialDomain, "peer"); err != nil {
			t.Fatal(err)
		}
		// The ring's pages, and a re-delegable heap for the descriptors
		// to name.
		if _, err := m.Grant(InitialDomain, node, tenant, memRes(400, 1), cap.MemRW, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Grant(InitialDomain, node, tenant, memRes(0x90, 32), cap.MemRW|cap.RightShare, cap.CleanFlushTLB); err != nil {
			t.Fatal(err)
		}
		const entries = 4
		base := ringAt(t, m, tenant, 400, entries)
		mem := m.Machine().Mem
		for i := uint64(0); len(data) >= 8; i, data = i+1, data[8:] {
			b := data[:8]
			desc := [6]uint64{
				uint64(b[0] % 16),
				uint64(b[1] % 24),
				uint64(b[2] % 5),
				(uint64(b[3]) | uint64(b[4]%2)<<8) * pg,
				uint64(b[5]%8) * pg,
				uint64(b[6]) | uint64(b[7]%16)<<16,
			}
			tree, refs := m.space.TreeString(), m.RefCounts()
			off := base + phys.Addr(RingSQOff(entries, i))
			for w, v := range desc {
				if err := mem.Write64(off+phys.Addr(8*w), v); err != nil {
					t.Fatal(err)
				}
			}
			if err := mem.Write64(base+RingOffSQTail, i+1); err != nil {
				t.Fatal(err)
			}
			n, err := m.RingFlush(tenant)
			if err != nil && !errors.Is(err, ErrDenied) {
				t.Fatalf("descriptor %v: untyped flush error %v", desc, err)
			}
			if _, ok := m.rings[tenant]; !ok {
				break // the batch revoked or gave away its own ring
			}
			if n != 1 {
				t.Fatalf("descriptor %v: flush executed %d descriptors, %v", desc, n, err)
			}
			status, _ := completion(t, m, base, entries, i)
			switch status {
			case StatusOK:
			case StatusDenied, StatusBadCall:
				if m.space.TreeString() != tree || !slices.EqualFunc(m.RefCounts(), refs, sameCount) {
					t.Fatalf("descriptor %v rejected with status %d but changed the capability state", desc, status)
				}
			default:
				t.Fatalf("descriptor %v completed with unknown status %d", desc, status)
			}
		}
		assertTraceClean(t, m, ck)
	})
}

// sameCount reports whether two refcount records are equal.
func sameCount(a, b cap.RegionCount) bool {
	return a.Region == b.Region && a.Count == b.Count && slices.Equal(a.Owners, b.Owners)
}
