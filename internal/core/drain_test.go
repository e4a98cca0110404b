package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/tyche-sim/tyche/internal/backend"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// drainWorld builds a fleet of ring-owning tenants with identical
// pending work: each tenant's ring holds a CallSelfID, two CallRevoke
// descriptors over its own flush-on-revoke shares, and a
// CallEnumerateLen. Deterministic — two worlds built with the same
// arguments submit byte-identical descriptor streams.
func drainWorld(t testing.TB, m *Monitor, tenants int) (doms []DomainID, bases []phys.Addr) {
	t.Helper()
	node := dom0MemNode(t, m)
	const entries = 16
	for i := 0; i < tenants; i++ {
		dom, err := m.CreateDomain(InitialDomain, "tenant")
		if err != nil {
			t.Fatal(err)
		}
		ringPage := uint64(600 + i)
		if _, err := m.Grant(InitialDomain, node, dom, memRes(ringPage, 1), cap.MemRW, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		base := phys.Addr(ringPage * pg)
		if err := m.RingSetup(dom, base, entries); err != nil {
			t.Fatal(err)
		}
		rawEnqueue(t, m, base, entries, CallSelfID)
		for j := uint64(0); j < 2; j++ {
			id, err := m.Share(InitialDomain, node, dom, memRes(700+uint64(i)*4+j, 1), cap.MemRW, cap.CleanFlushTLB)
			if err != nil {
				t.Fatal(err)
			}
			rawEnqueue(t, m, base, entries, CallRevoke, uint64(id))
		}
		rawEnqueue(t, m, base, entries, CallEnumerateLen)
		doms = append(doms, dom)
		bases = append(bases, base)
	}
	return doms, bases
}

// rawEnqueue is ring_test.go's enqueue for testing.TB (benchmarks use
// it too).
func rawEnqueue(t testing.TB, m *Monitor, base phys.Addr, entries uint64, desc ...uint64) {
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

// TestDrainRoundDeterministic drives the identical multi-ring round —
// every tenant's batch revokes, enumerates and delegates — twice at 1
// host thread and twice at 4. A round is its rings in owner order on
// one goroutine, so nothing may differ: cycle total, Stats(), every
// completion, the capability forest with its node IDs (fresh IDs are
// handed out in (owner, descriptor) order) and the checker's verdict
// bytes.
func TestDrainRoundDeterministic(t *testing.T) {
	const tenants, perRing = 4, 5
	run := func(threads int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(threads))
		m, ck, tr := bootDualTracedWorld(t, BackendVTX)
		sink, err := m.CreateDomain(InitialDomain, "sink")
		if err != nil {
			t.Fatal(err)
		}
		doms, bases := drainWorld(t, m, tenants)
		node := dom0MemNode(t, m)
		for i, dom := range doms {
			page := 700 + uint64(i)*4 + 2
			id, err := m.Share(InitialDomain, node, dom, memRes(page, 1), cap.MemRW|cap.RightShare, cap.CleanNone)
			if err != nil {
				t.Fatal(err)
			}
			rawEnqueue(t, m, bases[i], 16, CallShare, uint64(id), uint64(sink), page*pg, pg, uint64(cap.MemRW))
		}
		if n := m.DrainRings(); n != tenants*perRing {
			t.Fatalf("threads=%d executed %d descriptors, want %d", threads, n, tenants*perRing)
		}
		var comps, pending []uint64
		for i, base := range bases {
			for slot := uint64(0); slot < perRing; slot++ {
				status, result := completion(t, m, base, 16, slot)
				if status != StatusOK {
					t.Fatalf("threads=%d: tenant %d completion %d status = %d, want OK", threads, i, slot, status)
				}
				comps = append(comps, status, result)
			}
			pending = append(pending, m.RingPending(doms[i]))
		}
		st := m.Stats()
		if st.RingShootdowns != 1 || st.RingOpsCoalesced != tenants*2 {
			t.Fatalf("threads=%d: %d shootdown rounds coalescing %d requests, want 1 round of %d",
				threads, st.RingShootdowns, st.RingOpsCoalesced, tenants*2)
		}
		out := fmt.Sprintf("cycles=%d\nstats=%+v\ncompletions=%v\npending=%v\n%s",
			m.Machine().Clock.Cycles(), st, comps, pending, m.LineageTree())
		err = assertCheckersAgree(t, ck, tr)
		out += fmt.Sprintf("verdict=%v|%v", err, ck.Violations())
		if err != nil {
			t.Fatalf("threads=%d: drain trace flagged: %v", threads, err)
		}
		return out
	}
	first := run(1)
	for _, threads := range []int{1, 4, 4} {
		if got := run(threads); got != first {
			t.Fatalf("round at %d host threads diverged from the first run:\n--- first\n%s\n--- this\n%s", threads, first, got)
		}
	}
}

// TestDrainShardsAreOverlapComponents: rings whose footprints overlap,
// directly and through a third ring, drain clean in one round, and the
// round takes its rings in ascending owner order whatever order they
// registered in.
func TestDrainShardsAreOverlapComponents(t *testing.T) {
	// Tenants 0 and 1 hold disjoint rings in one shared slab, tenant 2's
	// ring footprint spans both, and a fourth tenant's ring sits
	// elsewhere.
	m, ck, tr := bootDualTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	const entries = 16 // RingBytes(16) = 1344
	offs := []uint64{0, 2048, 1024, 8 * pg}
	var doms []DomainID
	for _, off := range offs {
		dom, err := m.CreateDomain(InitialDomain, "tenant")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Share(InitialDomain, node, dom, memRes(600+off/pg, 1), cap.MemRW, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		doms = append(doms, dom)
	}
	// Registration order is not owner order: setup zeroes the header,
	// so the overlapping ring goes first and the others land on top.
	for _, i := range []int{2, 0, 1, 3} {
		base := phys.Addr(600*pg + offs[i])
		if err := m.RingSetup(doms[i], base, entries); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{3, 1, 0} {
		rawEnqueue(t, m, phys.Addr(600*pg+offs[i]), entries, CallSelfID)
	}
	seq0 := len(m.Machine().Tracer().Events())
	m.DrainRings()
	for _, i := range []int{0, 1, 3} {
		if st, res := completion(t, m, phys.Addr(600*pg+offs[i]), entries, 0); st != StatusOK || res != uint64(doms[i]) {
			t.Errorf("tenant %d completion = (%d, %d), want (%d, %d)", i, st, res, StatusOK, doms[i])
		}
	}
	var batches []uint64
	for _, ev := range m.Machine().Tracer().Events()[seq0:] {
		if ev.Kind == trace.KBatchBegin {
			batches = append(batches, ev.Domain)
		}
	}
	if want := []uint64{uint64(doms[0]), uint64(doms[1]), uint64(doms[3])}; !slices.Equal(batches, want) {
		t.Errorf("batches drained for owners %v, want ascending %v", batches, want)
	}
	if err := assertCheckersAgree(t, ck, tr); err != nil {
		t.Fatalf("chained drain flagged: %v", err)
	}
}

// failingBackend fails the calls a round's retire step makes, and
// transitions into one owner.
type failingBackend struct {
	backend.Backend
	cleanups, sync, transition error
	refuse                     cap.OwnerID // the owner transition fails for
}

func (b *failingBackend) Transition(c *hw.Core, to cap.OwnerID, fast bool) error {
	if b.transition != nil && to == b.refuse {
		return b.transition
	}
	return b.Backend.Transition(c, to, fast)
}

func (b *failingBackend) ExecuteCleanups(acts []cap.CleanupAction) error {
	if b.cleanups != nil {
		return b.cleanups
	}
	return b.Backend.ExecuteCleanups(acts)
}

func (b *failingBackend) SyncDomainRange(o cap.OwnerID, scope phys.Region) error {
	if b.sync != nil {
		return b.sync
	}
	return b.Backend.SyncDomainRange(o, scope)
}

// TestDrainErrorSurfaced: no drain failure may vanish. A malformed
// ring (guest overran its own tail) fails its barrier drain — counted
// in Stats().RingDrainErrors and latched for FirstDrainError, without
// poisoning other tenants' rings. A failure in the round's retire step
// (cleanups or hardware resync) is latched the same way and, when the
// round is a doorbell, returned from RingFlush too — with the
// completions already written left as they are.
func TestDrainErrorSurfaced(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	doms, bases := drainWorld(t, m, 2)
	// Overrun tenant 0's ring: tail jumps past head by more than the
	// capacity, which the drain must refuse.
	if err := m.Machine().Mem.Write64(bases[0]+RingOffSQTail, 1000); err != nil {
		t.Fatal(err)
	}
	n := m.DrainRings()
	if n != 4 {
		t.Fatalf("healthy tenant drained %d descriptors, want 4", n)
	}
	if got := m.Stats().RingDrainErrors; got != 1 {
		t.Fatalf("RingDrainErrors = %d, want 1", got)
	}
	err := m.FirstDrainError()
	if err == nil || !strings.Contains(err.Error(), "overruns") {
		t.Fatalf("FirstDrainError = %v, want the overrun denial", err)
	}
	// The healthy tenant's ring still works.
	if m.RingPending(doms[1]) != 0 {
		t.Fatal("healthy tenant's ring was not drained")
	}

	for _, tc := range []struct {
		name string
		fail func(*failingBackend, error)
	}{
		{"cleanups", func(b *failingBackend, err error) { b.cleanups = err }},
		{"resync", func(b *failingBackend, err error) { b.sync = err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := bootWorld(t, BackendVTX)
			doms, bases := drainWorld(t, m, 1)
			boom := errors.New("retire step failed")
			fb := &failingBackend{Backend: m.bk}
			tc.fail(fb, boom)
			m.bk = fb
			n, err := m.RingFlush(doms[0])
			if n != 4 || !errors.Is(err, boom) {
				t.Fatalf("RingFlush = %d, %v; want 4 descriptors and the retire failure", n, err)
			}
			if got := m.Stats().RingDrainErrors; got != 1 {
				t.Fatalf("RingDrainErrors = %d, want 1", got)
			}
			if err := m.FirstDrainError(); !errors.Is(err, boom) {
				t.Fatalf("FirstDrainError = %v, want the retire failure", err)
			}
			for slot := uint64(0); slot < 4; slot++ {
				if st, _ := completion(t, m, bases[0], 16, slot); st != StatusOK {
					t.Fatalf("completion %d status = %d after the failed retire, want it left OK", slot, st)
				}
			}
		})
	}
}

// TestRingRoundWindow pins the batch window of a doorbell round: a
// revocation's parent regains access when the round retires, not
// between two descriptors, so re-sharing a page in the batch that
// revokes its grant is denied — and succeeds on the next flush.
func TestRingRoundWindow(t *testing.T) {
	m, ck := bootTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	worker, err := m.CreateDomain(InitialDomain, "worker")
	if err != nil {
		t.Fatal(err)
	}
	const entries = 8
	base := ringAt(t, m, InitialDomain, 8, entries)
	share := []uint64{CallShare, uint64(node), uint64(worker), 200 * pg, pg, uint64(cap.MemRW)}

	// The grant's node ID is what the next descriptor revokes, so the
	// grant runs first and the batch under test follows it.
	granted, err := m.Grant(InitialDomain, node, worker, memRes(200, 1), cap.MemRW, cap.CleanZero|cap.CleanFlushTLB)
	if err != nil {
		t.Fatal(err)
	}
	enqueue(t, m, base, entries, CallSelfID)
	enqueue(t, m, base, entries, CallRevoke, uint64(granted))
	enqueue(t, m, base, entries, share...)
	if n, err := m.RingFlush(InitialDomain); n != 3 || err != nil {
		t.Fatalf("flush = %d, %v", n, err)
	}
	for i, want := range []uint64{StatusOK, StatusOK, StatusDenied} {
		if st, _ := completion(t, m, base, entries, uint64(i)); st != want {
			t.Fatalf("completion %d status = %d, want %d", i, st, want)
		}
	}
	// The round retired: the grantor has the page back, the worker
	// nothing.
	if !m.CheckAccess(InitialDomain, 200*pg, cap.RightRead|cap.RightWrite) || m.CheckAccess(worker, 200*pg, cap.RightRead) {
		t.Fatal("round did not hand the revoked page back to its grantor")
	}
	enqueue(t, m, base, entries, share...)
	if n, err := m.RingFlush(InitialDomain); n != 1 || err != nil {
		t.Fatalf("second flush = %d, %v", n, err)
	}
	if st, id := completion(t, m, base, entries, 3); st != StatusOK || id == 0 {
		t.Fatalf("re-share on the next flush = (%d, %d), want OK", st, id)
	}
	if !m.CheckAccess(worker, 200*pg, cap.RightRead) {
		t.Fatal("re-share did not take effect")
	}
	assertTraceClean(t, m, ck)
}

// TestSyncRevokeGolden pins the synchronous Share+Revoke, derived by
// hand from the cost model: the event kinds in order and the cycle
// charges — in particular a two-capability subtree retires one
// coalesced shootdown round, flushed by its one op frame before the
// frame closes, a round pays only for the cores resident for its
// domains, and a resync pays only for the pages its rebuild changed.
//
// vtx: the shares give child 2 pages and grand 1, and neither sharer's
// view changes, so they cost (2 + 1) pages × EPTUpdatePage 7 = 21 and
// emit one ept-map each. The revoke zeroes 2 pages (2 × 64 lines ×
// ZeroLine 3 = 384), unmaps child's 2 pages and grand's 1 (3 × 7 = 21),
// with one ept-map per unmapped extent (dom0's view is unchanged), and
// runs 1 shootdown round for child and grand (a shootdown and a
// shootdown-for) that targets no core, since neither ever ran on one
// (0 acks, 0 × TLBFlush): 405.
// pmp: a layout is programmed into a core only when the domain runs
// there, and no core runs these, so the shares cost 0 and the revoke
// only its zeroing: 384, its one round again targeting no core.
func TestSyncRevokeGolden(t *testing.T) {
	for _, tc := range []struct {
		kind          BackendKind
		share, revoke uint64
		events        string
	}{
		{BackendVTX, 21, 405, "op-begin share ept-map op-end op-begin share ept-map op-end " +
			"op-begin revoke ept-map ept-map shootdown shootdown-for op-end"},
		{BackendPMP, 0, 384, "op-begin share op-end op-begin share op-end " +
			"op-begin revoke shootdown shootdown-for op-end"},
	} {
		t.Run(string(tc.kind), func(t *testing.T) {
			m, ck := bootTracedWorld(t, tc.kind)
			node := dom0MemNode(t, m)
			child, err := m.CreateDomain(InitialDomain, "child")
			if err != nil {
				t.Fatal(err)
			}
			grand, err := m.CreateDomain(InitialDomain, "grand")
			if err != nil {
				t.Fatal(err)
			}
			tr := m.Machine().Tracer()
			seq0 := len(tr.Events())
			c0 := m.Machine().Clock.Cycles()
			id, err := m.Share(InitialDomain, node, child, memRes(200, 2), cap.MemRW|cap.RightShare, cap.CleanZero|cap.CleanFlushTLB)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Share(child, id, grand, memRes(201, 1), cap.MemRW, cap.CleanFlushTLB); err != nil {
				t.Fatal(err)
			}
			c1 := m.Machine().Clock.Cycles()
			if err := m.Revoke(InitialDomain, id); err != nil {
				t.Fatal(err)
			}
			c2 := m.Machine().Clock.Cycles()
			var kinds []string
			for _, ev := range tr.Events()[seq0:] {
				kinds = append(kinds, ev.Kind.String())
			}
			if got := strings.Join(kinds, " "); got != tc.events {
				t.Errorf("event kinds:\n  got  %s\n  want %s", got, tc.events)
			}
			if c1-c0 != tc.share || c2-c1 != tc.revoke {
				t.Errorf("cycles: shares %d revoke %d, want %d and %d", c1-c0, c2-c1, tc.share, tc.revoke)
			}
			if limbo := m.space.LimboNodes(); limbo != 0 {
				t.Errorf("%d records in limbo after the revoke returned, want 0", limbo)
			}
			assertTraceClean(t, m, ck)
		})
	}
}

// TestRevokeStormWhileDraining interleaves drain rounds with public-API
// revocations, a ForceKillAll storm over ring-owning tenants, guest-side
// descriptor enqueues, and readers — the revocation-storm-while-draining
// scenario. Trace-oracle gated: the online checker and the replay of the
// trace must both find the interleaved trace clean.
func TestRevokeStormWhileDraining(t *testing.T) {
	m, ck, tr := bootDualTracedWorld(t, BackendVTX)
	const tenants = 6
	doms, bases := drainWorld(t, m, tenants)
	node := dom0MemNode(t, m)
	// Extra dom0-side shares the storm revokes through the public API
	// while drains run.
	var shares []cap.NodeID
	for i := 0; i < 16; i++ {
		id, err := m.Share(InitialDomain, node, doms[i%tenants], memRes(800+uint64(i), 1), cap.MemRW, cap.CleanFlushTLB)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, id)
	}

	for i := 0; i < 40; i++ {
		// Readers and guest enqueues on surviving rings, every step.
		d := doms[i%(tenants-2)]
		m.RingPending(d)
		m.OwnerNodes(d)
		rawEnqueue(t, m, bases[i%(tenants-2)], 16, CallSelfID)
		if i < len(shares) { // the revoker (public destructive API)
			if err := m.Revoke(InitialDomain, shares[i]); err != nil {
				t.Fatalf("revoke %d: %v", i, err)
			}
		}
		if i == 11 { // the killer: a storm over ring-owning tenants
			if n, err := m.ForceKillAll(doms[tenants-2], doms[tenants-1]); n != 2 || err != nil {
				t.Fatalf("ForceKillAll: n=%d err=%v", n, err)
			}
		}
		if i%4 != 3 { // the drainer, three steps in four
			m.DrainRings()
		}
	}
	if n, err := m.ForceKillAll(doms[0]); n != 1 || err != nil {
		t.Fatalf("post-storm kill: n=%d err=%v", n, err)
	}
	m.DrainRings()

	if err := assertCheckersAgree(t, ck, tr); err != nil {
		t.Fatalf("storm trace flagged: %v", err)
	}
}

// TestDrainHotPathAllocs pins the doorbell round's hot path (flush of
// one pending descriptor, no tracer) at zero heap allocations per
// operation — the batched-ABI latency budget the benchmarks gate in CI.
func TestDrainHotPathAllocs(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	const entries = 1
	base := phys.Addr(600 * pg)
	if err := m.RingSetup(InitialDomain, base, entries); err != nil {
		t.Fatal(err)
	}
	mem := m.Machine().Mem
	// The descriptor slot is reused every iteration; only the tail
	// moves.
	if err := mem.Write64(base+phys.Addr(RingSQOff(entries, 0)), CallSelfID); err != nil {
		t.Fatal(err)
	}
	tail := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		tail++
		if err := mem.Write64(base+RingOffSQTail, tail); err != nil {
			t.Fatal(err)
		}
		if _, err := m.RingFlush(InitialDomain); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("drain hot path allocates %.1f times per flush, want 0", allocs)
	}
}

// BenchmarkDrainRings measures a full barrier drain over an 8-tenant
// fleet (rings8), and the single-ring doorbell hot path (perring, which
// must report 0 allocs/op).
func BenchmarkDrainRings(b *testing.B) {
	b.Run("rings8", func(b *testing.B) {
		m := bootWorld(b, BackendVTX)
		node := dom0MemNode(b, m)
		const tenants, entries = 8, 64
		bases := make([]phys.Addr, tenants)
		for i := 0; i < tenants; i++ {
			dom, err := m.CreateDomain(InitialDomain, "tenant")
			if err != nil {
				b.Fatal(err)
			}
			// 64 entries → RingBytes just over a page: grant two.
			page := uint64(600 + i*2)
			if _, err := m.Grant(InitialDomain, node, dom, memRes(page, 2), cap.MemRW, cap.CleanNone); err != nil {
				b.Fatal(err)
			}
			bases[i] = phys.Addr(page * pg)
			if err := m.RingSetup(dom, bases[i], entries); err != nil {
				b.Fatal(err)
			}
			// Descriptor slots hold CallSelfID once; iterations only
			// republish tails.
			for s := uint64(0); s < entries; s++ {
				if err := m.Machine().Mem.Write64(bases[i]+phys.Addr(RingSQOff(entries, s)), CallSelfID); err != nil {
					b.Fatal(err)
				}
			}
		}
		mem := m.Machine().Mem
		tail := uint64(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tail += 16
			for _, base := range bases {
				if err := mem.Write64(base+RingOffSQTail, tail); err != nil {
					b.Fatal(err)
				}
			}
			if n := m.DrainRings(); n != tenants*16 {
				b.Fatalf("drained %d, want %d", n, tenants*16)
			}
		}
	})
	b.Run("perring", func(b *testing.B) {
		m := bootWorld(b, BackendVTX)
		const entries = 1
		base := phys.Addr(600 * pg)
		if err := m.RingSetup(InitialDomain, base, entries); err != nil {
			b.Fatal(err)
		}
		mem := m.Machine().Mem
		if err := mem.Write64(base+phys.Addr(RingSQOff(entries, 0)), CallSelfID); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := mem.Write64(base+RingOffSQTail, uint64(i+1)); err != nil {
				b.Fatal(err)
			}
			if _, err := m.RingFlush(InitialDomain); err != nil {
				b.Fatal(err)
			}
		}
	})
}
