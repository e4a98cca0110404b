package core

// Destructive entries finish what they publish, and a revoke/kill storm
// interleaved with queries is linearizable: when an entry returns, its
// whole subtree is gone, and no query between two steps ever sees a
// half-detached one.

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/fault"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

// TestEpochReclaimAfterRevoke: a destructive entry finishes what it
// publishes. When it returns no capability record is detached and
// unreleased, and the index is back at what it held before the victim
// was built.
func TestEpochReclaimAfterRevoke(t *testing.T) {
	// tenant is a fresh domain holding one flush-on-revoke page of
	// dom0's.
	tenant := func(t *testing.T, m *Monitor, page uint64) (DomainID, cap.NodeID) {
		t.Helper()
		dom, err := m.CreateDomain(InitialDomain, "limbo")
		if err != nil {
			t.Fatal(err)
		}
		id, err := m.Share(InitialDomain, dom0MemNode(t, m), dom, memRes(page, 1), cap.MemRW, cap.CleanFlushTLB)
		if err != nil {
			t.Fatal(err)
		}
		return dom, id
	}
	// queued puts two such revocations on a ring of dom0's.
	queued := func(t *testing.T, m *Monitor) {
		t.Helper()
		base := ringAt(t, m, InitialDomain, 8, 8)
		for _, page := range []uint64{160, 162} {
			_, id := tenant(t, m, page)
			enqueue(t, m, base, 8, CallRevoke, uint64(id))
		}
	}
	kill := func(fn func(*Monitor, DomainID) error) func(*testing.T, *Monitor) func() error {
		return func(t *testing.T, m *Monitor) func() error {
			dom, _ := tenant(t, m, 160)
			return func() error { return fn(m, dom) }
		}
	}
	for _, tc := range []struct {
		name string
		// arm builds what the entry destroys and returns the entry.
		arm func(t *testing.T, m *Monitor) func() error
	}{
		{"Revoke", func(t *testing.T, m *Monitor) func() error {
			_, id := tenant(t, m, 160)
			return func() error { return m.Revoke(InitialDomain, id) }
		}},
		{"KillDomain", kill(func(m *Monitor, d DomainID) error { return m.KillDomain(InitialDomain, d) })},
		{"ForceKill", kill((*Monitor).ForceKill)},
		{"DepartKill", kill((*Monitor).DepartKill)},
		{"ForceKillAll", func(t *testing.T, m *Monitor) func() error {
			a, _ := tenant(t, m, 160)
			b, _ := tenant(t, m, 162)
			return func() error {
				n, err := m.ForceKillAll(a, b)
				if n != 2 {
					return fmt.Errorf("ForceKillAll killed %d of 2 (%v)", n, err)
				}
				return err
			}
		}},
		{"RingFlush", func(t *testing.T, m *Monitor) func() error {
			queued(t, m)
			return func() error {
				n, err := m.RingFlush(InitialDomain)
				if n != 2 {
					return fmt.Errorf("RingFlush ran %d of 2 descriptors (%v)", n, err)
				}
				return err
			}
		}},
		{"DrainRings", func(t *testing.T, m *Monitor) func() error {
			queued(t, m)
			return func() error {
				if n := m.DrainRings(); n != 2 {
					return fmt.Errorf("DrainRings ran %d of 2 descriptors", n)
				}
				return nil
			}
		}},
		{"machine check", func(t *testing.T, m *Monitor) func() error {
			victim := buildVictim(t, m)
			if err := m.Launch(victim, 1); err != nil {
				t.Fatal(err)
			}
			sched, err := fault.ParseSchedule("mc1@100")
			if err != nil {
				t.Fatal(err)
			}
			fault.NewInjector(sched...).Arm(m.Machine(), nil)
			return func() error {
				res, err := m.RunCores(100_000, 1)
				if err == nil && res[1].Trap.Kind != hw.TrapMachineCheck {
					err = fmt.Errorf("victim trap = %v, want machine-check", res[1].Trap)
				}
				return err
			}
		}},
	} {
		for _, kind := range []BackendKind{BackendVTX, BackendPMP} {
			t.Run(tc.name+"/"+string(kind), func(t *testing.T) {
				m := bootWorld(t, kind)
				baseline := m.space.NumNodes()
				entry := tc.arm(t, m)
				if m.space.NumNodes() <= baseline {
					t.Fatal("nothing was built for the entry to revoke")
				}
				if err := entry(); err != nil {
					t.Fatal(err)
				}
				if limbo, nodes := m.space.LimboNodes(), m.space.NumNodes(); limbo != 0 || nodes != baseline {
					t.Fatalf("on return %d records in limbo and %d indexed, want 0 and %d", limbo, nodes, baseline)
				}
			})
		}
	}
}

// TestEpochLinearizableRevokeStorm is the linearizability harness:
// workers storm the destructive family with revoke and kill cycles over
// two-level capability subtrees, their steps interleaved, while a reader
// runs monitor queries (access checks, attestation, stats, enumeration)
// between every two steps. The reader asserts that no half-detached
// subtree is ever observable and that unrelated domains never flicker;
// each worker asserts the linearization point — when a revoke or kill
// returns, the whole subtree is gone. The trace oracle then replays the
// run against the dead-domain-silence and scrub ordering invariants.
func TestEpochLinearizableRevokeStorm(t *testing.T) {
	m, ck := bootTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	const workers = 4
	iters := 24
	if testing.Short() {
		iters = 6
	}

	// A bystander with a stable mapping: storms on unrelated subtrees
	// must never disturb it, not even transiently.
	bystander, err := m.CreateDomain(InitialDomain, "bystander")
	if err != nil {
		t.Fatal(err)
	}
	byRegion := phys.MakeRegion(phys.Addr(400*pg), pg)
	if _, err := m.Share(InitialDomain, node, bystander, cap.MemResource(byRegion), cap.MemRW, cap.CleanNone); err != nil {
		t.Fatal(err)
	}

	// Long-lived per-worker "cell" domains receive the second level of
	// each victim subtree, so every revoke cascades across owners.
	var cells [workers]DomainID
	for i := range cells {
		cells[i], err = m.CreateDomain(InitialDomain, fmt.Sprintf("cell%d", i))
		if err != nil {
			t.Fatal(err)
		}
	}

	var lastRevs uint64
	reads := 0
	read := func() {
		t.Helper()
		if !m.CheckAccess(InitialDomain, 0, cap.MemRWX) {
			t.Fatal("dom0 lost its root capability mid-storm")
		}
		if !m.CheckAccess(bystander, byRegion.Start, cap.MemRW) {
			t.Fatal("bystander access flickered mid-storm")
		}
		st := m.Stats()
		if st.Revocations < lastRevs {
			t.Fatalf("revocation counter went backwards: %d -> %d", lastRevs, st.Revocations)
		}
		lastRevs = st.Revocations
		if _, err := m.Enumerate(InitialDomain); err != nil {
			t.Fatalf("enumerate dom0: %v", err)
		}
		if reads++; reads%8 == 0 {
			if _, err := m.Attest(bystander, []byte{byte(reads)}); err != nil {
				t.Fatalf("bystander attest failed mid-storm: %v", err)
			}
		}
	}

	region := func(i int) phys.Region { return phys.MakeRegion(phys.Addr(uint64(300+4*i)*pg), 2*pg) }
	sub := func(i int) phys.Region { return phys.MakeRegion(region(i).Start+pg, pg) }
	for n := 0; n < iters; n++ {
		// Build every worker's two-level subtree, then tear them down in
		// turn, so each teardown runs beside the others' live subtrees.
		var victims [workers]DomainID
		var tops [workers]cap.NodeID
		for i := range victims {
			v, err := m.CreateDomain(InitialDomain, fmt.Sprintf("victim%d-%d", i, n))
			if err != nil {
				t.Fatal(err)
			}
			a, err := m.Share(InitialDomain, node, v, cap.MemResource(region(i)), cap.MemRW|cap.RightShare, cap.CleanFlushTLB)
			if err != nil {
				t.Fatal(err)
			}
			read()
			if _, err := m.Share(v, a, cells[i], cap.MemResource(sub(i)), cap.MemRW, cap.CleanFlushTLB); err != nil {
				t.Fatal(err)
			}
			if !m.CheckAccess(cells[i], sub(i).Start, cap.MemRW) {
				t.Fatalf("worker %d: cell lost access before revoke", i)
			}
			victims[i], tops[i] = v, a
			read()
		}
		for i, v := range victims {
			if (n+i)%2 == 0 {
				err = m.Revoke(InitialDomain, tops[i])
			} else {
				err = m.KillDomain(InitialDomain, v)
			}
			if err != nil {
				t.Fatal(err)
			}
			// Linearization point: the revoke/kill has returned, so the
			// whole two-level subtree must be invisible — a surviving
			// second-level grant would be a half-detached subtree.
			if m.CheckAccess(v, region(i).Start, cap.MemRW) {
				t.Fatalf("worker %d iter %d: victim retains access after teardown returned", i, n)
			}
			if m.CheckAccess(cells[i], sub(i).Start, cap.MemRW) {
				t.Fatalf("worker %d iter %d: half-detached subtree (cell retains cascaded grant)", i, n)
			}
			if (n+i)%2 == 1 {
				if nodes := m.OwnerNodes(v); len(nodes) != 0 {
					t.Fatalf("worker %d iter %d: killed domain still owns %d nodes", i, n, len(nodes))
				}
			}
			read()
		}
	}

	// Every entry has returned: nothing the storm detached is still
	// unreleased, and the hammered regions are exclusive to dom0 again.
	if got := m.space.LimboNodes(); got != 0 {
		t.Fatalf("%d capability records leaked in limbo after the storm", got)
	}
	for _, rc := range m.RefCounts() {
		for i := 0; i < workers; i++ {
			if rc.Region.Overlaps(region(i)) && rc.Count != 1 {
				t.Fatalf("region %v refcount = %d after storm", rc.Region, rc.Count)
			}
		}
	}
	assertTraceClean(t, m, ck)
}

// TestRevocationRecordsAreReused: over a thousand create → share →
// revoke → ForceKill cycles, the capability space's free list of
// revocation records stays as short as the records one frame used (one
// here): a revoke's record and a kill's both come off the list and go
// back once their retire is done. A DetachOwner that allocated while
// retire returned its record would grow the list by one per kill. The
// list is the space's own, so the test walks it by reflection.
func TestRevocationRecordsAreReused(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	freeRecords := func() int {
		n := 0
		for det := reflect.ValueOf(m.space).Elem().FieldByName("free"); !det.IsNil(); det = det.Elem().FieldByName("next") {
			n++
		}
		return n
	}
	for i := 0; i < 1000; i++ {
		dom, err := m.CreateDomain(InitialDomain, "cycle")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Share(InitialDomain, node, dom, memRes(160, 1), cap.MemRW, cap.CleanZero); err != nil {
			t.Fatal(err)
		}
		id, err := m.Share(InitialDomain, node, dom, memRes(161, 1), cap.MemRW, cap.CleanZero)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Revoke(InitialDomain, id); err != nil {
			t.Fatal(err)
		}
		if err := m.ForceKill(dom); err != nil {
			t.Fatal(err)
		}
		if n := freeRecords(); n > 1 {
			t.Fatalf("cycle %d: %d records on the free list, want at most 1", i, n)
		}
	}
	if n := freeRecords(); n != 1 {
		t.Fatalf("%d records on the free list after the cycles, want 1", n)
	}
}
