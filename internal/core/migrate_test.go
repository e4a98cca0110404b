package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/codec"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

// serviceImage assembles the standard service payload: return r2+delta
// via CallReturn. Position-independent (no jumps).
func serviceImage(delta uint32) []byte {
	a := hw.NewAsm()
	a.Movi(3, delta)
	a.Add(1, 2, 3)
	a.Movi(0, uint32(CallReturn))
	a.Vmcall()
	a.Hlt()
	return a.MustAssemble(0)
}

// loadTestTenant builds a sealed service tenant at basePage on m and
// returns its ID and seal measurement.
func loadTestTenant(t testing.TB, m *Monitor, basePage uint64, delta uint32) DomainID {
	t.Helper()
	id, err := m.CreateDomain(InitialDomain, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	base := phys.Addr(basePage * pg)
	if err := m.CopyInto(InitialDomain, base, serviceImage(delta)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(InitialDomain, dom0MemNode(t, m), id, memRes(basePage, 2), cap.MemRWX, cap.CleanZero); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, id, base); err != nil {
		t.Fatal(err)
	}
	if err := m.AddMeasuredRegion(InitialDomain, id, phys.MakeRegion(base, pg)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Seal(InitialDomain, id); err != nil {
		t.Fatal(err)
	}
	return id
}

// idleDom0 gives dom0 an entry point and parks it on core 0, so Call
// can invoke service domains from it.
func idleDom0(t *testing.T, m *Monitor) {
	t.Helper()
	a := hw.NewAsm()
	a.Hlt()
	if err := m.CopyInto(InitialDomain, 4*pg, a.MustAssemble(4*pg)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, InitialDomain, 4*pg); err != nil {
		t.Fatal(err)
	}
	if err := m.Launch(InitialDomain, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunCore(0, 10); err != nil {
		t.Fatal(err)
	}
}

// invokeService calls the tenant with arg on core 0 and returns r1.
func invokeService(t *testing.T, m *Monitor, id DomainID, arg uint64) uint64 {
	t.Helper()
	c := m.Machine().Core(0)
	c.Regs[2] = arg
	if err := m.Call(0, id); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunCore(0, 1000); err != nil {
		t.Fatal(err)
	}
	return c.Regs[1]
}

// TestMigrationRoundTrip migrates a sealed service tenant between two
// identically-laid-out monitors: snapshot on A, restore at the same
// base on B, re-attestation (the recomputed seal measurement must
// reproduce the snapshot's), live invocation on B, then the departure
// kill on A with its forced scrub verified byte-for-byte.
func TestMigrationRoundTrip(t *testing.T) {
	mA, ckA := bootTracedWorld(t, BackendVTX)
	mB, ckB := bootTracedWorld(t, BackendVTX)
	const basePage, delta = 200, 5
	tenant := loadTestTenant(t, mA, basePage, delta)
	want, _ := func() (d [32]byte, e error) { dom, _ := mA.Domain(tenant); return dom.Measurement(), nil }()

	snap, err := mA.SnapshotDomain(tenant)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Base != basePage*pg || !snap.Sealed || len(snap.Regions) == 0 {
		t.Fatalf("snapshot shape: base %#x sealed %v regions %d", snap.Base, snap.Sealed, len(snap.Regions))
	}
	if snap.Measurement != want {
		t.Fatal("snapshot measurement != seal measurement")
	}

	restored, err := mB.RestoreDomain(InitialDomain, dom0MemNode(t, mB), []phys.CoreID{0}, snap)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := mB.Domain(restored)
	if err != nil {
		t.Fatal(err)
	}
	if dom.Measurement() != want {
		t.Fatal("restored measurement != source measurement")
	}
	if mB.Stats().MigrationsIn != 1 || mA.Stats().MigrationsOut != 1 {
		t.Fatal("migration counters not tallied")
	}

	// The restored tenant serves on the destination.
	idleDom0(t, mB)
	if got := invokeService(t, mB, restored, 37); got != 37+delta {
		t.Fatalf("restored tenant returned %d, want %d", got, 37+delta)
	}

	// Departure: forced scrub erases the source copy.
	if err := mA.DepartKill(tenant); err != nil {
		t.Fatal(err)
	}
	if d, _ := mA.Domain(tenant); d.State() != StateDead {
		t.Fatal("departed tenant not dead")
	}
	view, err := mA.Machine().Mem.View(phys.MakeRegion(phys.Addr(basePage*pg), 2*pg))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range view {
		if b != 0 {
			t.Fatalf("departed tenant memory not scrubbed at +%#x", i)
		}
	}
	assertTraceClean(t, mA, ckA)
	assertTraceClean(t, mB, ckB)
}

// TestSnapshotRejectsUnmigratable covers the refusal surface: the
// initial domain, shared memory, and a half-state-free failed restore.
func TestSnapshotRejectsUnmigratable(t *testing.T) {
	mA, _ := bootTracedWorld(t, BackendVTX)
	if _, err := mA.SnapshotDomain(InitialDomain); !errors.Is(err, ErrNotMigratable) {
		t.Fatalf("snapshot of dom0: %v", err)
	}
	// A tenant sharing memory with dom0 is not migratable.
	id, err := mA.CreateDomain(InitialDomain, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mA.Share(InitialDomain, dom0MemNode(t, mA), id, memRes(300, 1), cap.MemRW|cap.RightShare, cap.CleanZero); err != nil {
		t.Fatal(err)
	}
	if _, err := mA.SnapshotDomain(id); !errors.Is(err, ErrNotMigratable) {
		t.Fatalf("snapshot of sharing domain: %v", err)
	}

	// A tampered snapshot fails re-attestation and leaves no half-state.
	mB, ckB := bootTracedWorld(t, BackendVTX)
	tenant := loadTestTenant(t, mA, 200, 1)
	snap, err := mA.SnapshotDomain(tenant)
	if err != nil {
		t.Fatal(err)
	}
	snap.Regions[0].Data[0] ^= 0xff // corrupt the measured code in flight
	before := len(mB.Domains())
	if _, err := mB.RestoreDomain(InitialDomain, dom0MemNode(t, mB), nil, snap); !errors.Is(err, ErrReattest) {
		t.Fatalf("tampered restore: %v", err)
	}
	if got := len(mB.Domains()); got != before {
		t.Fatalf("tampered restore left %d domains, want %d", got, before)
	}
	// The aborted restore's span is free again: a clean restore at the
	// same base succeeds.
	snap.Regions[0].Data[0] ^= 0xff
	if _, err := mB.RestoreDomain(InitialDomain, dom0MemNode(t, mB), nil, snap); err != nil {
		t.Fatal(err)
	}
	assertTraceClean(t, mB, ckB)
}

// TestMigrateSchedulerState migrates a tenant whose vCPU was preempted
// mid-run: the saved registers and PC cross with the snapshot, the
// destination recreates the vCPU and resumes it to completion via
// TransDispatch.
func TestMigrateSchedulerState(t *testing.T) {
	mA, ckA := bootTracedWorld(t, BackendVTX)
	mB, ckB := bootTracedWorld(t, BackendVTX)
	const basePage = 220
	base := phys.Addr(basePage * pg)

	// A yielding countdown loop: far more slices than the source budget
	// covers, so the vCPU is preempted mid-run (saved state in the
	// in the monitor) when the snapshot is taken. Jumps resolve to absolute
	// addresses, so the same-base restore contract is load-bearing here.
	yieldLoop := func() []byte {
		a := hw.NewAsm()
		a.Movi(10, 400)
		a.Movi(12, 1)
		a.Label("loop")
		a.Movi(0, uint32(CallYield))
		a.Vmcall()
		a.Sub(10, 10, 12)
		a.Jnz(10, "loop")
		a.Hlt()
		return a.MustAssemble(base)
	}
	id, err := mA.CreateDomain(InitialDomain, "looper")
	if err != nil {
		t.Fatal(err)
	}
	if err := mA.CopyInto(InitialDomain, base, yieldLoop()); err != nil {
		t.Fatal(err)
	}
	if _, err := mA.Grant(InitialDomain, dom0MemNode(t, mA), id, memRes(basePage, 1), cap.MemRWX, cap.CleanZero); err != nil {
		t.Fatal(err)
	}
	if err := mA.SetEntry(InitialDomain, id, base); err != nil {
		t.Fatal(err)
	}
	// The vCPU needs a core capability on the destination too; restore
	// shares destination cores explicitly, so none are delegated here —
	// dom0's core roots suffice for dispatch on A.
	coreNode, ok := mA.space.OwnerCoreNode(cap.OwnerID(InitialDomain), 1)
	if !ok {
		t.Fatal("dom0 lost core 1")
	}
	if _, err := mA.Share(InitialDomain, coreNode, id, cap.CoreResource(1), cap.RightRun, cap.CleanNone); err != nil {
		t.Fatal(err)
	}

	// Run a couple of slices — not enough to finish — so the vCPU is
	// saved mid-run.
	left, err := runVCPUs(mA, []phys.CoreID{1}, vcpusFor(t, mA, id), 32, 2)
	if err != nil || len(left) != 1 {
		t.Fatalf("source slices: %d vCPUs left, %v", len(left), err)
	}
	snap, err := mA.SnapshotDomain(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.VCPUs) != 1 || !snap.VCPUs[0].Started {
		t.Fatalf("snapshot vCPUs = %+v, want one started", snap.VCPUs)
	}
	if err := mA.DepartKill(id); err != nil {
		t.Fatal(err)
	}

	restored, err := mB.RestoreDomain(InitialDomain, dom0MemNode(t, mB), []phys.CoreID{1}, snap)
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot's vCPU is VCPU{restored, 0} on the target, and it
	// resumes where the source left it.
	if left, err := runVCPUs(mB, []phys.CoreID{1}, []VCPU{{restored, 0}}, 32, 10_000); err != nil || len(left) > 0 {
		t.Fatalf("restored vCPU did not run to completion: %d left, %v", len(left), err)
	}
	if r := mB.Machine().Core(1).Regs[10]; r != 0 {
		t.Fatalf("restored countdown ended at %d, want 0", r)
	}
	if d, _ := mB.Domain(restored); d.State() == StateDead {
		t.Fatal("restored domain died")
	}
	assertTraceClean(t, mA, ckA)
	assertTraceClean(t, mB, ckB)
}

// sourceSnapshot captures the standard sealed service tenant from a
// fresh world.
func sourceSnapshot(tb testing.TB) *DomainSnapshot {
	tb.Helper()
	m := bootWorld(tb, BackendVTX)
	snap, err := m.SnapshotDomain(loadTestTenant(tb, m, 200, 5))
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// TestSnapshotEncodingCanonical: a snapshot survives its encoding
// exactly, and every other byte string — a bool byte of 2, an unknown
// version, a length past the end, a trailing byte — is refused with the
// codec's typed error.
func TestSnapshotEncodingCanonical(t *testing.T) {
	snap := sourceSnapshot(t)
	snap.VCPUs = []VCPUSnapshot{{Started: true, Regs: [hw.NumRegs]uint64{1, 2, 3}, PC: snap.Base + 8, Ring: 3}}
	raw := snap.Encode()
	got, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("decoded snapshot differs:\n got %+v\nwant %+v", got, snap)
	}
	if !bytes.Equal(got.Encode(), raw) {
		t.Fatal("re-encoding a decoded snapshot changed its bytes")
	}
	// EntrySet follows the version, the name and Base, Span, Entry.
	entrySet := 1 + 8 + len(snap.Name) + 3*8
	if raw[entrySet] != 1 {
		t.Fatalf("EntrySet byte at %d = %d, want 1", entrySet, raw[entrySet])
	}
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), raw...)) }
	for _, c := range []struct {
		name string
		raw  []byte
		want error
	}{
		{"bool byte 2", edit(func(b []byte) []byte { b[entrySet] = 2; return b }), codec.ErrBool},
		{"version 2", edit(func(b []byte) []byte { b[0] = 2; return b }), codec.ErrVersion},
		{"over-long length", edit(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[1:], uint64(len(b))); return b }), codec.ErrLength},
		{"truncated", raw[:len(raw)-1], codec.ErrLength},
		{"trailing byte", append(append([]byte(nil), raw...), 0), codec.ErrTrailing},
	} {
		if _, err := DecodeSnapshot(c.raw); !errors.Is(err, c.want) {
			t.Errorf("%s: DecodeSnapshot = %v, want %v", c.name, err, c.want)
		}
	}
}

// FuzzRestoreDomain feeds snapshot bytes from the wire through
// DecodeSnapshot into RestoreDomain. Neither may panic; a refused
// restore leaves no new domain live and the trace clean, and an
// accepted sealed one reproduces the shipped measurement.
func FuzzRestoreDomain(f *testing.F) {
	snap := sourceSnapshot(f)
	f.Add(snap.Encode())
	snap.Regions[0].Data[0] ^= 0xff // fails re-attestation
	f.Add(snap.Encode())
	snap.Regions[0].Data[0] ^= 0xff
	snap.Sealed, snap.Measurement = false, [32]byte{}
	snap.VCPUs = []VCPUSnapshot{{}, {Started: true, PC: snap.Entry}}
	f.Add(snap.Encode())
	snap.Regions[0].Offset = 1 // unaligned
	f.Add(snap.Encode())
	f.Fuzz(func(t *testing.T, raw []byte) {
		snap, err := DecodeSnapshot(raw)
		if err != nil {
			return
		}
		m, ck := bootTracedWorld(t, BackendVTX)
		before := m.Domains()
		id, err := m.RestoreDomain(InitialDomain, dom0MemNode(t, m), []phys.CoreID{1}, snap)
		if err != nil {
			if after := m.Domains(); !slices.Equal(after, before) {
				t.Fatalf("refused restore (%v) left domains %v, want %v", err, after, before)
			}
		} else if d, err := m.Domain(id); err != nil || (snap.Sealed && d.Measurement() != snap.Measurement) {
			t.Fatalf("restored domain %d: %v, measurement mismatch", id, err)
		}
		assertTraceClean(t, m, ck)
	})
}
