package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

// Benchmarks for the monitor's read-side telemetry. Stats must stay
// allocation-free: it is sampled from hot monitoring loops (and from
// the bench harness between timed regions), so a per-call allocation
// would perturb exactly the measurements it exists to take.

// BenchmarkStats pins the allocation-free property of the snapshot
// read path: a shared-lock acquisition plus fourteen atomic loads into
// a value struct, no heap traffic.
func BenchmarkStats(b *testing.B) {
	m := bootWorld(b, BackendVTX)
	b.ReportAllocs()
	b.ResetTimer()
	var s Stats
	for i := 0; i < b.N; i++ {
		s = m.Stats()
	}
	b.StopTimer()
	_ = s
	if allocs := testing.AllocsPerRun(100, func() { _ = m.Stats() }); allocs != 0 {
		b.Fatalf("Stats allocates %.1f objects per call, want 0", allocs)
	}
}

// BenchmarkDomains measures enumeration off the atomically-published
// domain-table snapshot: no monitor lock is taken, only the result
// slice allocates.
func BenchmarkDomains(b *testing.B) {
	m := bootWorld(b, BackendVTX)
	for i := 0; i < 6; i++ {
		if _, err := m.CreateDomain(InitialDomain, fmt.Sprintf("bench%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.Domains()) != 7 {
			b.Fatal("domain count drifted")
		}
	}
}

// TestStatsAllocationFree keeps the satellite property under plain
// `go test` runs too, where benchmarks do not execute.
func TestStatsAllocationFree(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	if allocs := testing.AllocsPerRun(100, func() { _ = m.Stats() }); allocs != 0 {
		t.Fatalf("Stats allocates %.1f objects per call, want 0", allocs)
	}
}

// capSyncWorld is the shape the benchmark's cap_sync and cap_ring worlds
// have: a tenant delegating pages of a 256-page heap to its child, with
// eight pages of the heap already shared, four more granted away around
// the ring footprint (so the heap node's effective region is carved),
// and a few hundred other capabilities in the space.
func capSyncWorld(t testing.TB) (m *Monitor, tenant, child DomainID, heap cap.NodeID) {
	t.Helper()
	m = bootWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	tenant, _ = m.CreateDomain(InitialDomain, "tenant")
	child, _ = m.CreateDomain(tenant, "child")
	heap, err := m.Grant(InitialDomain, node, tenant, memRes(256, 256), cap.MemFull, cap.CleanZero)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		if _, err := m.Share(tenant, heap, child, memRes(256+i, 1), cap.MemRW, cap.CleanZero); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []uint64{270, 278, 290, 400} {
		if _, err := m.Grant(tenant, heap, child, memRes(p, 1), cap.MemRW, cap.CleanZero); err != nil {
			t.Fatal(err)
		}
	}
	bystander, _ := m.CreateDomain(InitialDomain, "bystander")
	for i := uint64(0); i < 300; i++ {
		if _, err := m.Share(InitialDomain, node, bystander, memRes(600+i, 1), cap.MemRW, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
	}
	return m, tenant, child, heap
}

// poolKeepsItems reports whether a sync.Pool hands back what it was just
// given: under the race detector Put drops a quarter of its arguments on
// purpose, and the backends' pooled scratch is reallocated at random.
func poolKeepsItems() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return false
		}
	}
	return true
}

// TestShareRevokeAllocations pins the allocations of one synchronous
// Share + Revoke pair on capSyncWorld. What is left is what the pair
// keeps or hands on: the capability node, the Detached record (one
// object: its lists start in buffers inside it) and the child's two new
// tables, 2 + 2. The four filter rebuilds allocate nothing else — the
// sharer's and the revoker's views do not change. When the record was a
// struct plus three one-entry slices, the pair was 9 objects; when every
// rebuild materialised regions, grants, sweep events and a table, 63;
// when the queries behind them swept the node index, 139. Counted on
// go1.24. With the online checker attached the pair costs the same:
// internal/rv's TestCheckedShareRevokeAllocations.
func TestShareRevokeAllocations(t *testing.T) {
	m, tenant, child, heap := capSyncWorld(t)
	pinned := 6.0
	if !poolKeepsItems() {
		pinned = 63
	}
	allocs := testing.AllocsPerRun(200, func() {
		id, err := m.Share(tenant, heap, child, memRes(300, 1), cap.MemRW, cap.CleanZero|cap.CleanFlushTLB)
		if err == nil {
			err = m.Revoke(tenant, id)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > pinned {
		t.Fatalf("a Share + Revoke pair allocates %.0f objects, pinned at %.0f", allocs, pinned)
	}
	t.Logf("a Share + Revoke pair allocates %.0f objects (pinned at %.0f)", allocs, pinned)
}

// BenchmarkShareRevokeRound is one cap_sync op: eight Shares of heap
// pages from the tenant to its child, then the eight Revokes, through
// the synchronous API.
func BenchmarkShareRevokeRound(b *testing.B) {
	m, tenant, child, heap := capSyncWorld(b)
	var nodes [8]cap.NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range nodes {
			id, err := m.Share(tenant, heap, child, memRes(300+uint64(8*i+k)%64, 1), cap.MemRW, cap.CleanZero|cap.CleanFlushTLB)
			if err != nil {
				b.Fatal(err)
			}
			nodes[k] = id
		}
		for _, id := range nodes {
			if err := m.Revoke(tenant, id); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCheckRange is what the ring drain pays after every
// descriptor that moved the capability generation: the tenant's
// read+write access over its ring's four pages, which lie in the heap
// node between granted-away children, validated again.
func BenchmarkCheckRange(b *testing.B) {
	m, tenant, _, _ := capSyncWorld(b)
	if err := m.RingSetup(tenant, phys.Addr(280*pg), 200); err != nil {
		b.Fatal(err)
	}
	r := m.rings[tenant]
	if last := r.region.End - 1; last.Page() != 283 {
		b.Fatalf("ring footprint is %v", r.region)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.capGen-- // the space moved since the last validation
		if err := m.ringRevalidate(r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRequestAllocations pins the allocations of one request on the
// shape the benchmark's node_request world has: a sealed tenant whose
// body spins 200 iterations (407 instructions), invoked with Call and
// run to its CallReturn with RunCore. The interpreter contributes none
// of them — when every fetch heap-allocated its buffer, a request was
// 413 objects — and the monitor's per-transition work none either: the
// tracer is installed, as runtime verification has it in production,
// and an emission copies into a ring slot.
func TestRequestAllocations(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	m.Machine().SetTracer(m.Machine().NewTracer(64))
	idleDom0(t, m)
	const basePage, delta = 200, 7
	base := phys.Addr(basePage * pg)
	a := hw.NewAsm()
	a.Movi(3, delta).Add(1, 2, 3).Movi(4, 200).Movi(5, 1)
	a.Label("spin").Sub(4, 4, 5).Jnz(4, "spin")
	a.Movi(0, uint32(CallReturn)).Vmcall().Hlt()
	tenant, err := m.CreateDomain(InitialDomain, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.CopyInto(InitialDomain, base, a.MustAssemble(base)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(InitialDomain, dom0MemNode(t, m), tenant, memRes(basePage, 2), cap.MemRWX, cap.CleanZero); err != nil {
		t.Fatal(err)
	}
	for _, n := range m.OwnerNodes(InitialDomain) {
		if n.Resource.Kind == cap.ResCore && n.Resource.Core == 0 {
			if _, err := m.Share(InitialDomain, n.ID, tenant, cap.CoreResource(0), cap.RightRun, cap.CleanNone); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.SetEntry(InitialDomain, tenant, base); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Seal(InitialDomain, tenant); err != nil {
		t.Fatal(err)
	}
	cpu := m.Machine().Core(0)
	arg := uint64(0)
	request := func() {
		arg++
		cpu.Regs[2] = arg
		if err := m.Call(0, tenant); err != nil {
			t.Fatal(err)
		}
		res, err := m.RunCore(0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != 407 || cpu.Regs[1] != arg+delta {
			t.Fatalf("request retired %d instructions and replied %d, want 407 and %d", res.Steps, cpu.Regs[1], arg+delta)
		}
	}
	for i := 0; i < 64; i++ { // grow the trace rings to their capacity
		request()
	}
	const pinned = 0
	allocs := testing.AllocsPerRun(100, request)
	if allocs > pinned {
		t.Fatalf("a Call + RunCore request allocates %.0f objects, pinned at %d", allocs, pinned)
	}
	t.Logf("a Call + RunCore request allocates %.0f objects (pinned at %d)", allocs, pinned)
}
