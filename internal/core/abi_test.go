package core

import (
	"encoding/binary"
	"slices"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

// runGuest loads a program into dom0 at page 4, launches core 0, and
// runs it to completion.
func runGuest(t *testing.T, m *Monitor, a *hw.Asm) hw.Trap {
	t.Helper()
	code := a.MustAssemble(4 * pg)
	if err := m.CopyInto(InitialDomain, 4*pg, code); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, InitialDomain, 4*pg); err != nil {
		t.Fatal(err)
	}
	if err := m.Launch(InitialDomain, 0); err != nil {
		t.Fatal(err)
	}
	res, err := m.RunCore(0, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trap
}

func TestABISelfID(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	a := hw.NewAsm()
	a.Movi(0, uint32(CallSelfID)).Vmcall()
	a.Movi(0, uint32(CallLog)).Vmcall() // log r1 (= own id)
	a.Hlt()
	if trap := runGuest(t, m, a); trap.Kind != hw.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	d, _ := m.Domain(InitialDomain)
	if logs := d.Log(); len(logs) != 1 || logs[0] != uint64(InitialDomain) {
		t.Fatalf("logs = %v", logs)
	}
}

func TestABIEnumerateLen(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	a := hw.NewAsm()
	a.Movi(0, uint32(CallEnumerateLen)).Vmcall()
	a.Movi(0, uint32(CallLog)).Vmcall()
	a.Hlt()
	if trap := runGuest(t, m, a); trap.Kind != hw.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	d, _ := m.Domain(InitialDomain)
	logs := d.Log()
	if len(logs) != 1 {
		t.Fatalf("logs = %v", logs)
	}
	want := len(m.OwnerNodes(InitialDomain)) // 1 mem + cores + devices roots
	// Enumerate counts records (grants+cores+devices); with no
	// delegation every root shows once.
	recs, _ := m.Enumerate(InitialDomain)
	if logs[0] != uint64(len(recs)) {
		t.Fatalf("guest saw %d resources, monitor enumerates %d (nodes %d)", logs[0], len(recs), want)
	}
}

func TestABIBadCallNumber(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	a := hw.NewAsm()
	a.Movi(0, 0xdead).Vmcall()
	a.Mov(1, 0) // capture status
	a.Movi(0, uint32(CallLog)).Vmcall()
	a.Hlt()
	if trap := runGuest(t, m, a); trap.Kind != hw.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	d, _ := m.Domain(InitialDomain)
	if logs := d.Log(); len(logs) != 1 || logs[0] != StatusBadCall {
		t.Fatalf("logs = %v, want [%d]", logs, StatusBadCall)
	}
}

func TestABIDeniedCallReportsStatus(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	// Call a nonexistent domain: the guest gets StatusDenied, not a
	// crash.
	a := hw.NewAsm()
	a.Movi(0, uint32(CallDomainCall)).Movi(1, 999).Vmcall()
	a.Mov(1, 0)
	a.Movi(0, uint32(CallLog)).Vmcall()
	a.Hlt()
	if trap := runGuest(t, m, a); trap.Kind != hw.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	d, _ := m.Domain(InitialDomain)
	if logs := d.Log(); len(logs) != 1 || logs[0] != StatusDenied {
		t.Fatalf("logs = %v, want [%d]", logs, StatusDenied)
	}
	// CallReturn with no caller frame: denied too.
	m2 := bootWorld(t, BackendVTX)
	b := hw.NewAsm()
	b.Movi(0, uint32(CallReturn)).Vmcall()
	b.Mov(1, 0)
	b.Movi(0, uint32(CallLog)).Vmcall()
	b.Hlt()
	if trap := runGuest(t, m2, b); trap.Kind != hw.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	d2, _ := m2.Domain(InitialDomain)
	if logs := d2.Log(); len(logs) != 1 || logs[0] != StatusDenied {
		t.Fatalf("logs = %v", logs)
	}
}

// TestABIAttest: the guest-facing attest verb returns the first 8
// bytes of the caller's measurement and matches what the Go-level
// Attest reports for the same nonce — the trap path goes through the
// shared-lock Attest, not the drain-only ringExec variant.
func TestABIAttest(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	a := hw.NewAsm()
	a.Movi(0, uint32(CallAttest)).Movi(1, 42).Vmcall()
	a.Movi(0, uint32(CallLog)).Vmcall() // log r1 (= measurement prefix)
	a.Hlt()
	if trap := runGuest(t, m, a); trap.Kind != hw.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	var nonce [8]byte
	binary.LittleEndian.PutUint64(nonce[:], 42)
	rep, err := m.Attest(InitialDomain, nonce[:])
	if err != nil {
		t.Fatal(err)
	}
	want := binary.LittleEndian.Uint64(rep.Measurement[:8])
	d, _ := m.Domain(InitialDomain)
	if logs := d.Log(); len(logs) != 1 || logs[0] != want {
		t.Fatalf("guest logged %v, want measurement prefix %#x", logs, want)
	}
	if got := m.Stats().Attests; got != 2 { // one guest trap + one Go-level
		t.Fatalf("attests = %d, want 2", got)
	}
}

func TestABIFastSwitchDeniedWithoutRegistration(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	comp, _ := m.CreateDomain(InitialDomain, "c")
	node := dom0MemNode(t, m)
	prog := hw.NewAsm()
	prog.Hlt()
	if err := m.CopyInto(InitialDomain, 64*pg, prog.MustAssemble(64*pg)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(InitialDomain, node, comp, memRes(64, 1), cap.MemRWX, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, comp, 64*pg); err != nil {
		t.Fatal(err)
	}
	a := hw.NewAsm()
	a.Movi(0, uint32(CallFastSwitch)).Movi(1, uint32(comp)).Vmcall()
	a.Mov(1, 0)
	a.Movi(0, uint32(CallLog)).Vmcall()
	a.Hlt()
	if trap := runGuest(t, m, a); trap.Kind != hw.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	d, _ := m.Domain(InitialDomain)
	if logs := d.Log(); len(logs) != 1 || logs[0] != StatusDenied {
		t.Fatalf("logs = %v", logs)
	}
}

func TestNestedMediatedCalls(t *testing.T) {
	// dom0 -> A -> B and back, verifying the per-core frame stack.
	m := bootWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	var coreNode cap.NodeID
	for _, n := range m.OwnerNodes(InitialDomain) {
		if n.Resource.Kind == cap.ResCore && n.Resource.Core == 0 {
			coreNode = n.ID
		}
	}
	mkService := func(name string, page uint64, body func(a *hw.Asm)) DomainID {
		id, err := m.CreateDomain(InitialDomain, name)
		if err != nil {
			t.Fatal(err)
		}
		a := hw.NewAsm()
		body(a)
		code := a.MustAssemble(phys.Addr(page * pg))
		if err := m.CopyInto(InitialDomain, phys.Addr(page*pg), code); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Grant(InitialDomain, node, id, memRes(page, 1), cap.MemRWX, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Share(InitialDomain, coreNode, id, cap.CoreResource(0), cap.RightRun, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		if err := m.SetEntry(InitialDomain, id, phys.Addr(page*pg)); err != nil {
			t.Fatal(err)
		}
		return id
	}
	// B: r1 = r2 * 3, return.
	b := mkService("b", 80, func(a *hw.Asm) {
		a.Movi(3, 3)
		a.Mul(1, 2, 3)
		a.Movi(0, uint32(CallReturn)).Vmcall()
		a.Hlt()
	})
	// A: call B with r2+1, add 100 to B's result, return.
	aID := mkService("a", 72, func(a *hw.Asm) {
		a.Movi(3, 1)
		a.Add(2, 2, 3) // r2 = arg+1
		a.Movi(0, uint32(CallDomainCall)).Movi(1, uint32(b)).Vmcall()
		// r1 = B's result
		a.Movi(3, 100)
		a.Add(1, 1, 3)
		a.Movi(0, uint32(CallReturn)).Vmcall()
		a.Hlt()
	})
	host := hw.NewAsm()
	host.Movi(0, uint32(CallDomainCall)).Movi(1, uint32(aID)).Movi(2, 6).Vmcall()
	host.Movi(0, uint32(CallLog)).Vmcall() // log result
	host.Hlt()
	if trap := runGuest(t, m, host); trap.Kind != hw.TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	d0, _ := m.Domain(InitialDomain)
	// (6+1)*3 + 100 = 121
	if logs := d0.Log(); len(logs) != 1 || logs[0] != 121 {
		t.Fatalf("logs = %v, want [121]", logs)
	}
	if m.Stats().Transitions < 4 {
		t.Fatalf("transitions = %d", m.Stats().Transitions)
	}
}

// TestCallLogBounded: CallLog is the one verb that grows monitor memory
// on a guest's say-so, so the log stops at MaxDomainLog words. Filled
// and then overrun by trap and by ring: the overrunning call is denied
// and counted, and nothing else moves — the log keeps its first
// MaxDomainLog words, the capability tree and every other counter stay
// put.
func TestCallLogBounded(t *testing.T) {
	const ringPage = 200
	fill := map[string]func(t *testing.T, m *Monitor, n int) (status, r1 uint64){
		// n traps logging n, n-1, ..., 1; the last call's r0/r1 are
		// left in the registers.
		"trap": func(t *testing.T, m *Monitor, n int) (uint64, uint64) {
			a := hw.NewAsm()
			a.Movi(6, uint32(n))
			a.Label("loop")
			a.Mov(1, 6).Movi(0, uint32(CallLog)).Vmcall()
			a.Mov(7, 0) // the status, before the next iteration clobbers r0
			a.Movi(5, 1).Sub(6, 6, 5).Jnz(6, "loop")
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
			if res, err := m.RunCore(0, 10*MaxDomainLog); err != nil || res.Trap.Kind != hw.TrapHalt {
				t.Fatalf("run = %v, %v", res.Trap, err)
			}
			c := m.Machine().Core(0)
			return c.Regs[7], c.Regs[1]
		},
		// One doorbell over n descriptors logging n, n-1, ..., 1; the
		// last completion is returned.
		"ring": func(t *testing.T, m *Monitor, n int) (uint64, uint64) {
			base := ringAt(t, m, InitialDomain, ringPage, MaxRingEntries)
			for i := n; i > 0; i-- {
				enqueue(t, m, base, MaxRingEntries, CallLog, uint64(i))
			}
			if got, err := m.RingFlush(InitialDomain); err != nil || got != uint64(n) {
				t.Fatalf("flush = %d, %v, want %d", got, err, n)
			}
			return completion(t, m, base, MaxRingEntries, uint64(n-1))
		},
	}
	for path, logN := range fill {
		t.Run(path, func(t *testing.T) {
			m := bootWorld(t, BackendVTX)
			if status, _ := logN(t, m, MaxDomainLog); status != StatusOK {
				t.Fatalf("word %d of %d: status %d, want OK", MaxDomainLog, MaxDomainLog, status)
			}
			d, _ := m.Domain(InitialDomain)
			full := d.Log()
			if len(full) != MaxDomainLog || full[0] != MaxDomainLog || full[MaxDomainLog-1] != 1 {
				t.Fatalf("log holds %d words [%d..%d], want %d [%d..1]",
					len(full), full[0], full[len(full)-1], MaxDomainLog, MaxDomainLog)
			}
			tree, before := m.LineageTree(), m.Stats()

			status, r1 := logN(t, m, 1)
			if status != StatusDenied {
				t.Fatalf("word %d: status %d, want denied", MaxDomainLog+1, status)
			}
			if want := map[string]uint64{"trap": 1, "ring": 0}[path]; r1 != want {
				t.Fatalf("denied log left r1/result = %d, want %d (a trap leaves r1 alone, a completion carries 0)", r1, want)
			}
			if !slices.Equal(d.Log(), full) {
				t.Fatal("the overrunning word changed the log")
			}
			after := m.Stats()
			if after.DeniedOps != before.DeniedOps+1 {
				t.Fatalf("DeniedOps %d -> %d, want +1", before.DeniedOps, after.DeniedOps)
			}
			if after.CapOps != before.CapOps || after.Revocations != before.Revocations || m.LineageTree() != tree {
				t.Fatal("a denied log moved capability state")
			}
		})
	}
}
