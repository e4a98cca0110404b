package core

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
)

const pg = phys.PageSize

func bootWorld(t testing.TB, kind BackendKind) *Monitor {
	t.Helper()
	mach, err := hw.NewMachine(hw.Config{
		MemBytes: 8 << 20, NumCores: 2, PMPEntries: 16,
		IOMMUAllowByDefault: true,
		Devices:             []hw.DeviceConfig{{Name: "gpu0", Class: hw.DevAccelerator}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rot, err := tpm.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Boot(BootConfig{Machine: mach, TPM: rot, Backend: kind})
	if err != nil {
		t.Fatalf("Boot(%s): %v", kind, err)
	}
	return m
}

func dom0MemNode(t testing.TB, m *Monitor) cap.NodeID {
	t.Helper()
	for _, n := range m.OwnerNodes(InitialDomain) {
		if n.Resource.Kind == cap.ResMemory {
			return n.ID
		}
	}
	t.Fatal("dom0 has no memory capability")
	return 0
}

func memRes(startPage, pages uint64) cap.Resource {
	return cap.MemResource(phys.MakeRegion(phys.Addr(startPage*pg), pages*pg))
}

func TestBootState(t *testing.T) {
	for _, kind := range []BackendKind{BackendVTX, BackendPMP} {
		t.Run(string(kind), func(t *testing.T) {
			m := bootWorld(t, kind)
			if m.Backend() != string(kind) {
				t.Fatalf("backend = %s", m.Backend())
			}
			// Initial domain owns everything below the monitor region.
			mon := m.MonitorRegion()
			if !m.CheckAccess(InitialDomain, 0, cap.MemRWX) {
				t.Fatal("dom0 missing low memory")
			}
			if m.CheckAccess(InitialDomain, mon.Start, cap.RightRead) {
				t.Fatal("dom0 can reach monitor memory")
			}
			// IOMMU flipped to deny-by-default at boot.
			if m.Machine().IOMMU.DefaultAllow {
				t.Fatal("IOMMU still in commodity default")
			}
			if len(m.Domains()) != 1 || m.Domains()[0] != InitialDomain {
				t.Fatalf("domains = %v", m.Domains())
			}
			d, err := m.Domain(InitialDomain)
			if err != nil || d.Name() != "dom0" || d.State() != StateActive {
				t.Fatalf("dom0 = %v, %v", d, err)
			}
		})
	}
}

func TestBootValidation(t *testing.T) {
	if _, err := Boot(BootConfig{}); err == nil {
		t.Fatal("boot without machine/TPM must fail")
	}
	small, _ := hw.NewMachine(hw.Config{MemBytes: DefaultMonitorReserve, NumCores: 1})
	rot, _ := tpm.New(nil)
	if _, err := Boot(BootConfig{Machine: small, TPM: rot}); err == nil {
		t.Fatal("a machine no larger than the monitor's reserve must fail")
	}
	mach, _ := hw.NewMachine(hw.Config{MemBytes: 2 * DefaultMonitorReserve, NumCores: 1})
	if _, err := Boot(BootConfig{Machine: mach, TPM: rot, Backend: "weird"}); err == nil {
		t.Fatal("unknown backend must fail")
	}
}

// TestGrantedCoreStaysWithSealedEnclave: dom0 grants a core to an
// enclave and seals it; the core is then the enclave's alone, so dom0's
// later share of it to another domain is refused, and the refusal
// changes neither the capability space nor what the enclave's
// attestation reports.
func TestGrantedCoreStaysWithSealedEnclave(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	enclave, err := m.CreateDomain(InitialDomain, "enclave")
	if err != nil {
		t.Fatal(err)
	}
	other, err := m.CreateDomain(InitialDomain, "other")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(InitialDomain, dom0MemNode(t, m), enclave, memRes(64, 2), cap.MemRWX, cap.CleanZero); err != nil {
		t.Fatal(err)
	}
	coreNode, ok := m.space.OwnerCoreNode(cap.OwnerID(InitialDomain), 1)
	if !ok {
		t.Fatal("dom0 holds no capability for core 1")
	}
	if _, err := m.Grant(InitialDomain, coreNode, enclave, cap.CoreResource(1), cap.RightRun, cap.CleanFlushCache); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, enclave, phys.Addr(64*pg)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Seal(InitialDomain, enclave); err != nil {
		t.Fatal(err)
	}
	gen, tree, denied := m.CapGeneration(), m.LineageTree(), m.Stats().DeniedOps
	before, err := m.Enumerate(enclave)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Share(InitialDomain, coreNode, other, cap.CoreResource(1), cap.RightRun, cap.CleanNone); !errors.Is(err, cap.ErrSubresource) {
		t.Fatalf("dom0 shared a core it granted to a sealed enclave: err = %v", err)
	}
	after, err := m.Enumerate(enclave)
	if err != nil {
		t.Fatal(err)
	}
	if m.CapGeneration() != gen || m.LineageTree() != tree || !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused share changed the state:\n%s\nenclave resources %v -> %v", m.LineageTree(), before, after)
	}
	if got := m.Stats().DeniedOps; got != denied+1 {
		t.Fatalf("DeniedOps %d -> %d, want +1", denied, got)
	}
	if m.space.OwnerHasCore(cap.OwnerID(other), 1) || m.space.CoreRefCount(1) != 1 {
		t.Fatalf("core 1: other holds it %v, refcount %d", m.space.OwnerHasCore(cap.OwnerID(other), 1), m.space.CoreRefCount(1))
	}
}

func TestDomainLifecycle(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	enclave, err := m.CreateDomain(InitialDomain, "enclave")
	if err != nil {
		t.Fatal(err)
	}
	node := dom0MemNode(t, m)

	// Load a tiny program into pages 64..65 while dom0 still owns them.
	prog := hw.NewAsm()
	prog.Movi(0, uint32(CallLog)).Movi(1, 7).Vmcall().Hlt()
	code := prog.MustAssemble(phys.Addr(64 * pg))
	if err := m.CopyInto(InitialDomain, phys.Addr(64*pg), code); err != nil {
		t.Fatal(err)
	}

	// Grant the enclave its memory exclusively, with obliterating
	// revocation.
	if _, err := m.Grant(InitialDomain, node, enclave, memRes(64, 2), cap.MemRWX, cap.CleanObfuscate); err != nil {
		t.Fatal(err)
	}
	// dom0 lost access — even though it is the privileged OS domain.
	if m.CheckAccess(InitialDomain, phys.Addr(64*pg), cap.RightRead) {
		t.Fatal("privileged domain retains access to enclave memory")
	}
	if _, err := m.CopyFrom(InitialDomain, phys.Addr(64*pg), 8); !errors.Is(err, ErrDenied) {
		t.Fatalf("CopyFrom should be denied, got %v", err)
	}

	// Share a core, set entry, measure, seal.
	var coreNode cap.NodeID
	for _, n := range m.OwnerNodes(InitialDomain) {
		if n.Resource.Kind == cap.ResCore && n.Resource.Core == 1 {
			coreNode = n.ID
		}
	}
	if _, err := m.Share(InitialDomain, coreNode, enclave, cap.CoreResource(1), cap.RightRun, cap.CleanFlushCache); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, enclave, phys.Addr(64*pg)); err != nil {
		t.Fatal(err)
	}
	if err := m.AddMeasuredRegion(InitialDomain, enclave, phys.MakeRegion(phys.Addr(64*pg), pg)); err != nil {
		t.Fatal(err)
	}
	meas, err := m.Seal(InitialDomain, enclave)
	if err != nil {
		t.Fatal(err)
	}
	if meas == (tpm.Digest{}) {
		t.Fatal("zero measurement after seal")
	}
	d, _ := m.Domain(enclave)
	if d.State() != StateSealed || d.Measurement() != meas {
		t.Fatalf("domain after seal = %v", d)
	}
	// Sealed: no more resources.
	if _, err := m.Share(InitialDomain, node, enclave, memRes(100, 1), cap.MemRW, cap.CleanNone); err == nil {
		t.Fatal("sealed domain received a share")
	}
	// Double seal fails.
	if _, err := m.Seal(InitialDomain, enclave); !errors.Is(err, ErrSealedState) {
		t.Fatalf("double seal: %v", err)
	}

	// Run it: the enclave logs 7 and halts.
	if err := m.Launch(enclave, 1); err != nil {
		t.Fatal(err)
	}
	res, err := m.RunCore(1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap.Kind != hw.TrapHalt {
		t.Fatalf("trap = %v", res.Trap)
	}
	if log := d.Log(); len(log) != 1 || log[0] != 7 {
		t.Fatalf("log = %v", log)
	}

	// Kill: memory is zeroed (CleanObfuscate) and returns to dom0.
	if err := m.KillDomain(InitialDomain, enclave); err != nil {
		t.Fatal(err)
	}
	if d.State() != StateDead {
		t.Fatal("domain not dead")
	}
	if !m.CheckAccess(InitialDomain, phys.Addr(64*pg), cap.RightRead) {
		t.Fatal("dom0 did not regain memory")
	}
	buf, err := m.CopyFrom(InitialDomain, phys.Addr(64*pg), uint64(len(code)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, len(code))) {
		t.Fatal("enclave memory not zeroed on kill")
	}
	// Dead domains reject everything.
	if _, err := m.CreateDomain(enclave, "zombie-child"); !errors.Is(err, ErrDead) {
		t.Fatalf("create from dead: %v", err)
	}
}

func TestEnclaveIsolationEnforcedInHardware(t *testing.T) {
	// The C8 scenario in miniature: dom0 (privileged) runs interpreted
	// code that tries to read enclave memory; under the monitor the
	// access faults in hardware, not just in API checks.
	for _, kind := range []BackendKind{BackendVTX, BackendPMP} {
		t.Run(string(kind), func(t *testing.T) {
			m := bootWorld(t, kind)
			enclave, err := m.CreateDomain(InitialDomain, "enclave")
			if err != nil {
				t.Fatal(err)
			}
			node := dom0MemNode(t, m)
			if _, err := m.Grant(InitialDomain, node, enclave, memRes(64, 2), cap.MemRWX, cap.CleanObfuscate); err != nil {
				t.Fatal(err)
			}
			// dom0 program: read enclave page (should fault).
			attack := hw.NewAsm()
			attack.Movi(1, uint32(64*pg)).Ld(2, 1, 0).Hlt()
			code := attack.MustAssemble(phys.Addr(4 * pg))
			if err := m.CopyInto(InitialDomain, phys.Addr(4*pg), code); err != nil {
				t.Fatal(err)
			}
			if err := m.SetEntry(InitialDomain, InitialDomain, phys.Addr(4*pg)); err != nil {
				t.Fatal(err)
			}
			if err := m.Launch(InitialDomain, 0); err != nil {
				t.Fatal(err)
			}
			res, err := m.RunCore(0, 100)
			if err != nil {
				t.Fatal(err)
			}
			if res.Trap.Kind != hw.TrapFault || res.Trap.Addr != phys.Addr(64*pg) {
				t.Fatalf("trap = %v, want fault at enclave page", res.Trap)
			}
		})
	}
}

func TestMediatedCallReturn(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	enclave, err := m.CreateDomain(InitialDomain, "enclave")
	if err != nil {
		t.Fatal(err)
	}
	node := dom0MemNode(t, m)

	// Enclave program at page 64: add 1 to the payload in r2, return it
	// in r1 (r1 carried the call target on entry).
	enc := hw.NewAsm()
	enc.Movi(3, 1)
	enc.Add(1, 2, 3) // r1 = payload + 1
	enc.Movi(0, uint32(CallReturn))
	enc.Vmcall()
	enc.Hlt() // unreachable
	encCode := enc.MustAssemble(phys.Addr(64 * pg))
	if err := m.CopyInto(InitialDomain, phys.Addr(64*pg), encCode); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(InitialDomain, node, enclave, memRes(64, 1), cap.MemRWX, cap.CleanObfuscate); err != nil {
		t.Fatal(err)
	}
	// Enclave runs on core 0 (shared with dom0).
	var coreNode cap.NodeID
	for _, n := range m.OwnerNodes(InitialDomain) {
		if n.Resource.Kind == cap.ResCore && n.Resource.Core == 0 {
			coreNode = n.ID
		}
	}
	if _, err := m.Share(InitialDomain, coreNode, enclave, cap.CoreResource(0), cap.RightRun, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, enclave, phys.Addr(64*pg)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Seal(InitialDomain, enclave); err != nil {
		t.Fatal(err)
	}

	// dom0 program at page 4: call the enclave with payload 42 in r2,
	// log the returned r1, halt.
	hostCode := buildCaller(t, enclave)
	if err := m.CopyInto(InitialDomain, phys.Addr(4*pg), hostCode); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, InitialDomain, phys.Addr(4*pg)); err != nil {
		t.Fatal(err)
	}
	if err := m.Launch(InitialDomain, 0); err != nil {
		t.Fatal(err)
	}
	res, err := m.RunCore(0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap.Kind != hw.TrapHalt || res.Domain != InitialDomain {
		t.Fatalf("final trap = %v in domain %d", res.Trap, res.Domain)
	}
	d0, _ := m.Domain(InitialDomain)
	if log := d0.Log(); len(log) != 1 || log[0] != 43 {
		t.Fatalf("log = %v, want [43]", log)
	}
	st := m.Stats()
	if st.Transitions < 2 {
		t.Fatalf("transitions = %d, want >= 2 (call + return)", st.Transitions)
	}
}

// buildCaller assembles a dom0 program that calls target with payload
// 42 in r2 (r1 carries the call target per the ABI), then logs the
// returned r1.
func buildCaller(t testing.TB, target DomainID) []byte {
	t.Helper()
	a := hw.NewAsm()
	a.Movi(0, uint32(CallDomainCall))
	a.Movi(1, uint32(target))
	a.Movi(2, 42)
	a.Vmcall() // call; resumes here after return with r0=0, r1=retval
	a.Movi(0, uint32(CallLog))
	a.Vmcall() // logs r1
	a.Hlt()
	return a.MustAssemble(phys.Addr(4 * pg))
}

func TestFastSwitchPath(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	comp, err := m.CreateDomain(InitialDomain, "compartment")
	if err != nil {
		t.Fatal(err)
	}
	node := dom0MemNode(t, m)
	// Compartment: log 5, halt.
	prog := hw.NewAsm()
	prog.Movi(0, uint32(CallLog)).Movi(1, 5).Vmcall().Hlt()
	code := prog.MustAssemble(phys.Addr(64 * pg))
	if err := m.CopyInto(InitialDomain, phys.Addr(64*pg), code); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(InitialDomain, node, comp, memRes(64, 1), cap.MemRWX, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	var coreNode cap.NodeID
	for _, n := range m.OwnerNodes(InitialDomain) {
		if n.Resource.Kind == cap.ResCore && n.Resource.Core == 0 {
			coreNode = n.ID
		}
	}
	if _, err := m.Share(InitialDomain, coreNode, comp, cap.CoreResource(0), cap.RightRun, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, comp, phys.Addr(64*pg)); err != nil {
		t.Fatal(err)
	}

	// Fast path must be registered first.
	if err := m.FastSwitch(0, comp); err == nil {
		t.Fatal("unregistered fast switch succeeded")
	}
	// Registration by a non-endpoint is denied.
	if err := m.RegisterFastPath(comp, InitialDomain, comp, 0); err != nil {
		t.Fatal(err) // comp IS an endpoint: allowed
	}
	stranger, _ := m.CreateDomain(InitialDomain, "stranger")
	if err := m.RegisterFastPath(stranger, InitialDomain, comp, 0); !errors.Is(err, ErrDenied) {
		t.Fatalf("non-endpoint registration: %v", err)
	}

	// dom0 idles at page 4.
	idle := hw.NewAsm()
	idle.Hlt()
	if err := m.CopyInto(InitialDomain, phys.Addr(4*pg), idle.MustAssemble(phys.Addr(4*pg))); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, InitialDomain, phys.Addr(4*pg)); err != nil {
		t.Fatal(err)
	}
	if err := m.Launch(InitialDomain, 0); err != nil {
		t.Fatal(err)
	}
	before := m.Machine().Clock.Cycles()
	if err := m.FastSwitch(0, comp); err != nil {
		t.Fatal(err)
	}
	cost := m.Machine().Clock.Cycles() - before
	if cost != m.Machine().Cost.VMFunc {
		t.Fatalf("fast switch cost = %d, want %d", cost, m.Machine().Cost.VMFunc)
	}
	res, err := m.RunCore(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap.Kind != hw.TrapHalt || res.Domain != comp {
		t.Fatalf("res = %+v", res)
	}
	d, _ := m.Domain(comp)
	if log := d.Log(); len(log) != 1 || log[0] != 5 {
		t.Fatalf("log = %v", log)
	}
	if m.Stats().FastSwitches != 1 {
		t.Fatalf("fast switches = %d", m.Stats().FastSwitches)
	}
}

func TestSyscallDispatch(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	// dom0 kernel handler: doubles r1.
	if err := m.SetSyscallHandler(InitialDomain, InitialDomain, func(c *hw.Core) error {
		c.Regs[1] *= 2
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	prog := hw.NewAsm()
	prog.Movi(1, 21).Syscall()
	prog.Movi(0, uint32(CallLog)).Vmcall().Hlt()
	code := prog.MustAssemble(phys.Addr(4 * pg))
	if err := m.CopyInto(InitialDomain, phys.Addr(4*pg), code); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, InitialDomain, phys.Addr(4*pg)); err != nil {
		t.Fatal(err)
	}
	if err := m.Launch(InitialDomain, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunCore(0, 100); err != nil {
		t.Fatal(err)
	}
	d, _ := m.Domain(InitialDomain)
	if log := d.Log(); len(log) != 1 || log[0] != 42 {
		t.Fatalf("log = %v, want [42]", log)
	}
	if m.Stats().Syscalls != 1 {
		t.Fatalf("syscalls = %d", m.Stats().Syscalls)
	}
}

func TestRevokeAuthorization(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	a, _ := m.CreateDomain(InitialDomain, "a")
	b, _ := m.CreateDomain(InitialDomain, "b")
	node := dom0MemNode(t, m)
	shared, err := m.Share(InitialDomain, node, a, memRes(64, 2), cap.MemRW|cap.RightShare, cap.CleanNone)
	if err != nil {
		t.Fatal(err)
	}
	// Domain b (unrelated) cannot revoke a's capability.
	if err := m.Revoke(b, shared); !errors.Is(err, ErrDenied) {
		t.Fatalf("unrelated revoke: %v", err)
	}
	// The owner itself may drop it.
	if err := m.Revoke(a, shared); err != nil {
		t.Fatal(err)
	}
	// The delegator may revoke what it handed out.
	shared2, err := m.Share(InitialDomain, node, a, memRes(64, 2), cap.MemRW, cap.CleanNone)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Revoke(InitialDomain, shared2); err != nil {
		t.Fatal(err)
	}
	if m.CheckAccess(a, phys.Addr(64*pg), cap.RightRead) {
		t.Fatal("revoked access persists")
	}
}

func TestSetEntryValidation(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	enclave, _ := m.CreateDomain(InitialDomain, "e")
	// No memory yet: entry rejected.
	if err := m.SetEntry(InitialDomain, enclave, phys.Addr(64*pg)); !errors.Is(err, ErrDenied) {
		t.Fatalf("entry without exec access: %v", err)
	}
	node := dom0MemNode(t, m)
	// Read-only share: still no exec.
	if _, err := m.Share(InitialDomain, node, enclave, memRes(64, 1), cap.MemRW, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, enclave, phys.Addr(64*pg)); !errors.Is(err, ErrDenied) {
		t.Fatalf("entry on rw-only memory: %v", err)
	}
	// Seal requires an entry point.
	if _, err := m.Seal(InitialDomain, enclave); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("seal without entry: %v", err)
	}
	// A stranger cannot configure the domain.
	stranger, _ := m.CreateDomain(InitialDomain, "s")
	if err := m.SetEntry(stranger, enclave, phys.Addr(64*pg)); !errors.Is(err, ErrDenied) {
		t.Fatalf("stranger SetEntry: %v", err)
	}
}

func TestAttestationReportAndChain(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	enclave, _ := m.CreateDomain(InitialDomain, "enclave")
	node := dom0MemNode(t, m)
	prog := hw.NewAsm()
	prog.Hlt()
	code := prog.MustAssemble(phys.Addr(64 * pg))
	if err := m.CopyInto(InitialDomain, phys.Addr(64*pg), code); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(InitialDomain, node, enclave, memRes(64, 2), cap.MemRWX, cap.CleanObfuscate); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, enclave, phys.Addr(64*pg)); err != nil {
		t.Fatal(err)
	}
	if err := m.AddMeasuredRegion(InitialDomain, enclave, phys.MakeRegion(phys.Addr(64*pg), pg)); err != nil {
		t.Fatal(err)
	}
	meas, err := m.Seal(InitialDomain, enclave)
	if err != nil {
		t.Fatal(err)
	}

	nonce := []byte("verifier-nonce")
	rep, err := m.Attest(enclave, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyReport(rep); err != nil {
		t.Fatal(err)
	}
	if rep.Measurement != meas || !rep.Sealed {
		t.Fatalf("report = %+v", rep)
	}
	// The granted memory shows refcount 1 (exclusive).
	foundMem := false
	for _, rec := range rep.Resources {
		if rec.Resource.Kind == cap.ResMemory {
			foundMem = true
			if rec.RefCount != 1 {
				t.Fatalf("enclave memory refcount = %d", rec.RefCount)
			}
		}
	}
	if !foundMem {
		t.Fatal("no memory resource in report")
	}

	// Tampering breaks the signature.
	bad := *rep
	bad.Resources = append([]ResourceRecord(nil), rep.Resources...)
	bad.Resources[0].RefCount = 9
	if err := VerifyReport(&bad); !errors.Is(err, ErrBadReport) {
		t.Fatalf("tampered report: %v", err)
	}
	if err := VerifyReport(nil); err == nil {
		t.Fatal("nil report verified")
	}

	// The offline measurement matches ComputeMeasurement over the same
	// content (what tyche-hash does).
	content, err := m.CopyFrom(enclave, phys.Addr(64*pg), pg)
	if err != nil {
		t.Fatal(err)
	}
	offline := ComputeMeasurement(phys.Addr(64*pg), []MeasuredRegion{
		{Region: phys.MakeRegion(phys.Addr(64*pg), pg), Content: content},
	})
	if offline != meas {
		t.Fatal("offline measurement mismatch")
	}

	// Tier one: the boot quote binds the monitor key to the TPM.
	q, err := m.BootQuote([]byte("boot-nonce"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.UserData, m.AttestationKey()) {
		t.Fatal("quote does not carry the attestation key")
	}
	pcr, ok := tpm.QuotedPCR(q, tpm.PCRMonitor)
	if !ok {
		t.Fatal("monitor PCR missing from quote")
	}
	if pcr != ExpectedMonitorPCR(m.Identity()) {
		t.Fatal("monitor PCR does not match expected identity")
	}
}

func TestCallRequiresCoreCapability(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	enclave, _ := m.CreateDomain(InitialDomain, "e")
	node := dom0MemNode(t, m)
	prog := hw.NewAsm()
	prog.Hlt()
	code := prog.MustAssemble(phys.Addr(64 * pg))
	if err := m.CopyInto(InitialDomain, phys.Addr(64*pg), code); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(InitialDomain, node, enclave, memRes(64, 1), cap.MemRWX, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, enclave, phys.Addr(64*pg)); err != nil {
		t.Fatal(err)
	}
	// No core capability shared: Launch and Call must be denied.
	if err := m.Launch(enclave, 0); !errors.Is(err, ErrDenied) {
		t.Fatalf("launch without core: %v", err)
	}
	idle := hw.NewAsm()
	idle.Hlt()
	if err := m.CopyInto(InitialDomain, phys.Addr(4*pg), idle.MustAssemble(phys.Addr(4*pg))); err != nil {
		t.Fatal(err)
	}
	if err := m.SetEntry(InitialDomain, InitialDomain, phys.Addr(4*pg)); err != nil {
		t.Fatal(err)
	}
	if err := m.Launch(InitialDomain, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Call(0, enclave); !errors.Is(err, ErrDenied) {
		t.Fatalf("call without core capability: %v", err)
	}
	// Return with empty stack.
	if err := m.Return(0); !errors.Is(err, ErrCallDepth) {
		t.Fatalf("return on empty stack: %v", err)
	}
}

func TestDeviceDelegationConfinesDMA(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	gpuDom, _ := m.CreateDomain(InitialDomain, "gpu-domain")
	var devNode cap.NodeID
	node := dom0MemNode(t, m)
	for _, n := range m.OwnerNodes(InitialDomain) {
		if n.Resource.Kind == cap.ResDevice {
			devNode = n.ID
		}
	}
	// I/O domain: pages 128..131 plus the device with DMA rights.
	if _, err := m.Grant(InitialDomain, node, gpuDom, memRes(128, 4), cap.MemRW, cap.CleanZero); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(InitialDomain, devNode, gpuDom, cap.DeviceResource(0), cap.RightUse|cap.RightDMA, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
	gpu := m.Machine().Device(0)
	// DMA inside the I/O domain's memory: allowed.
	if err := gpu.DMAWrite(phys.Addr(128*pg), []byte{1, 2, 3}); err != nil {
		t.Fatalf("confined DMA failed: %v", err)
	}
	// DMA anywhere else (e.g. dom0 kernel memory): denied.
	if err := gpu.DMAWrite(phys.Addr(4*pg), []byte{1}); err == nil {
		t.Fatal("DMA attack out of the I/O domain succeeded")
	}
}

// TestCreateDomainCostFlat: the domain table keeps every domain ever
// created, so creation must not copy it. With each domain killed right
// away (the backend's live table stays small), the bytes one
// CreateDomain allocates at the 10,000th create stay within 2× of the
// 100th, and a dead ID still reads as dead rather than unknown.
func TestCreateDomainCostFlat(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	// churn creates and kills n domains and returns the bytes the
	// creates allocated (when timed).
	churn := func(n int, timed bool) (allocated uint64) {
		var before, after runtime.MemStats
		for ; n > 0; n-- {
			if timed {
				runtime.ReadMemStats(&before)
			}
			id, err := m.CreateDomain(InitialDomain, "churn")
			if timed {
				runtime.ReadMemStats(&after)
				allocated += after.TotalAlloc - before.TotalAlloc
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := m.KillDomain(InitialDomain, id); err != nil {
				t.Fatal(err)
			}
		}
		return allocated
	}
	churn(100, false)
	early := float64(churn(1_000, true)) / 1_000
	churn(8_900, false)
	late := float64(churn(1_000, true)) / 1_000
	t.Logf("bytes per CreateDomain: %.0f at creates 100-1,100, %.0f at creates 10,000-11,000", early, late)
	if late > 2*early {
		t.Errorf("creates 10,000-11,000 cost %.0f B each, creates 100-1,100 %.0f B: a create's cost grows with the domains before it", late, early)
	}
	if _, err := m.liveDomain(InitialDomain + 1); !errors.Is(err, ErrDead) {
		t.Fatalf("dead domain: %v, want ErrDead", err)
	}
	if _, err := m.liveDomain(InitialDomain + 11_001); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("never-created domain: %v, want ErrNoSuchDomain", err)
	}
	if got := m.Domains(); len(got) != 1 || got[0] != InitialDomain {
		t.Fatalf("live domains = %v, want dom0 only", got)
	}
}
