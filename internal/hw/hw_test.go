package hw

import (
	"bytes"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
)

func testMachine(t testing.TB) *Machine {
	t.Helper()
	m, err := NewMachine(Config{MemBytes: 1 << 20, NumCores: 2, IOMMUAllowByDefault: true,
		Devices: []DeviceConfig{{Name: "gpu0", Class: DevAccelerator}}})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

func TestPhysMemReadWrite(t *testing.T) {
	m := testMachine(t)
	if err := m.Mem.Write64(0x100, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	v, err := m.Mem.Read64(0x100)
	if err != nil || v != 0xdeadbeefcafef00d {
		t.Fatalf("read64 = %#x, %v", v, err)
	}
	if err := m.Mem.Write64(phys.Addr(m.Mem.Size()-4), 1); err == nil {
		t.Fatal("expected out-of-bounds write to fail")
	}
	buf := []byte{1, 2, 3, 4}
	if err := m.Mem.WriteAt(0x200, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := m.Mem.ReadAt(0x200, got); err != nil || !bytes.Equal(got, buf) {
		t.Fatalf("readback = %v, %v", got, err)
	}
}

func TestPhysMemZeroAndView(t *testing.T) {
	m := testMachine(t)
	r := phys.MakeRegion(0x1000, phys.PageSize)
	if err := m.Mem.WriteAt(0x1800, []byte{0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.Zero(r); err != nil {
		t.Fatal(err)
	}
	view, err := m.Mem.View(r)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range view {
		if b != 0 {
			t.Fatalf("byte %d not zeroed: %#x", i, b)
		}
	}
}

func TestEPTMapCheck(t *testing.T) {
	e := NewEPT()
	r := phys.MakeRegion(0x2000, 2*phys.PageSize)
	if err := e.Map(r, PermRW); err != nil {
		t.Fatal(err)
	}
	if !e.Check(0x2000, PermR) || !e.Check(0x3fff, PermW) {
		t.Fatal("mapped pages should allow rw")
	}
	if e.Check(0x2000, PermX) {
		t.Fatal("execute not granted")
	}
	if e.Check(0x4000, PermR) || e.Check(0x1fff, PermR) {
		t.Fatal("unmapped pages must deny")
	}
	gen := e.Generation()
	if err := e.Unmap(r); err != nil {
		t.Fatal(err)
	}
	if e.Generation() == gen {
		t.Fatal("generation must advance on unmap")
	}
	if e.Check(0x2000, PermR) {
		t.Fatal("unmapped page allowed")
	}
	if e.MappedPages() != 0 {
		t.Fatalf("mapped pages = %d", e.MappedPages())
	}
}

func TestEPTMappingsCoalesce(t *testing.T) {
	e := NewEPT()
	if err := e.Map(phys.MakeRegion(0x1000, phys.PageSize), PermR); err != nil {
		t.Fatal(err)
	}
	if err := e.Map(phys.MakeRegion(0x2000, phys.PageSize), PermR); err != nil {
		t.Fatal(err)
	}
	if err := e.Map(phys.MakeRegion(0x3000, phys.PageSize), PermRW); err != nil {
		t.Fatal(err)
	}
	maps := e.Mappings()
	if len(maps) != 2 {
		t.Fatalf("mappings = %v, want 2 runs", maps)
	}
	if maps[0].Region != (phys.Region{Start: 0x1000, End: 0x3000}) || maps[0].Perm != PermR {
		t.Fatalf("first run = %v", maps[0])
	}
}

func TestEPTRejectsUnaligned(t *testing.T) {
	e := NewEPT()
	if err := e.Map(phys.Region{Start: 0x100, End: 0x200}, PermR); err == nil {
		t.Fatal("expected unaligned map to fail")
	}
}

func TestPMPProgramAndPriority(t *testing.T) {
	p := NewPMP(4)
	// Entry 0 (highest priority) denies a window inside entry 1's grant.
	if _, err := p.Replace(0, []EPTMapping{
		{Region: phys.MakeRegion(0x2000, phys.PageSize), Perm: PermNone},
		{Region: phys.MakeRegion(0x0, 16*phys.PageSize), Perm: PermRWX},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if p.Check(0x2800, PermR) {
		t.Fatal("higher-priority deny entry must win")
	}
	if !p.Check(0x3000, PermR) {
		t.Fatal("lower entry should grant outside the deny window")
	}
	if p.FreeEntries() != 2 {
		t.Fatalf("free = %d", p.FreeEntries())
	}
}

func TestPMPExhaustion(t *testing.T) {
	p := NewPMP(2)
	page := func(a phys.Addr) EPTMapping {
		return EPTMapping{Region: phys.MakeRegion(a, phys.PageSize), Perm: PermR}
	}
	if _, err := p.Replace(0, []EPTMapping{page(0), page(0x1000)}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Replace(0, []EPTMapping{page(0), page(0x1000), page(0x2000)}, nil); err == nil {
		t.Fatal("expected out-of-range entry to fail")
	}
	if !p.Check(0x1000, PermR) {
		t.Fatal("a refused Replace changed the register file")
	}
}

func TestPMPLocking(t *testing.T) {
	p := NewPMP(4)
	if err := p.Lock(0); err == nil {
		t.Fatal("locking unprogrammed entry must fail")
	}
	if _, err := p.Replace(0, []EPTMapping{{Region: phys.MakeRegion(0, phys.PageSize), Perm: PermRWX}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Lock(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Replace(0, []EPTMapping{{Region: phys.MakeRegion(0x1000, phys.PageSize), Perm: PermR}}, nil); err == nil {
		t.Fatal("reprogramming locked entry must fail")
	}
	if wrote, err := p.Replace(0, nil, nil); err != nil || len(wrote) != 0 {
		t.Fatalf("emptying Replace wrote locked entries %v (err %v)", wrote, err)
	}
	if !p.Check(0, PermRWX) {
		t.Fatal("clearing the file cleared the locked entry")
	}
}

func TestPMPNAPOT(t *testing.T) {
	if !IsNAPOT(phys.MakeRegion(0x4000, 0x4000)) {
		t.Fatal("0x4000+0x4000 is NAPOT")
	}
	if IsNAPOT(phys.MakeRegion(0x1000, 0x3000)) {
		t.Fatal("size 0x3000 is not a power of two")
	}
	if IsNAPOT(phys.MakeRegion(0x2000, 0x4000)) {
		t.Fatal("0x2000 is not naturally aligned for 0x4000")
	}
}

func TestTLBStaleness(t *testing.T) {
	tlb := NewTLB(8)
	tlb.Insert(0, 5, PermRW, 1)
	// Non-strict (real hardware): stale generation still hits.
	if p, hit := tlb.Lookup(0, 5, 2); !hit || p != PermRW {
		t.Fatal("non-strict TLB should serve stale entry (the hazard)")
	}
	tlb.Strict = true
	if _, hit := tlb.Lookup(0, 5, 2); hit {
		t.Fatal("strict TLB must reject stale generation")
	}
	tlb.Insert(0, 6, PermR, 3)
	if p, hit := tlb.Lookup(0, 6, 3); !hit || p != PermR {
		t.Fatal("fresh entry should hit")
	}
	tlb.Flush()
	if _, hit := tlb.Lookup(0, 6, 3); hit {
		t.Fatal("flush must clear entries")
	}
}

func TestTLBEviction(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(0, 1, PermR, 0)
	tlb.Insert(0, 2, PermR, 0)
	tlb.Insert(0, 3, PermR, 0) // evicts page 1 (FIFO)
	if _, hit := tlb.Lookup(0, 1, 0); hit {
		t.Fatal("page 1 should have been evicted")
	}
	if _, hit := tlb.Lookup(0, 3, 0); !hit {
		t.Fatal("page 3 should be cached")
	}
	if tlb.Len() != 2 {
		t.Fatalf("len = %d", tlb.Len())
	}
}

func TestCachePrimeProbe(t *testing.T) {
	c := NewCache(16)
	// Prime: fill a set.
	if c.Touch(0x0) {
		t.Fatal("cold cache should miss")
	}
	if !c.Touch(0x0) {
		t.Fatal("second touch should hit")
	}
	if !c.Probe(0x0) {
		t.Fatal("probe should see resident line")
	}
	// Conflict eviction: same set index (16 lines * 64B = 1KiB stride).
	c.Touch(0x400)
	if c.Probe(0x0) {
		t.Fatal("conflicting line should have evicted the victim")
	}
	flushed := c.Flush()
	if flushed == 0 {
		t.Fatal("flush should report resident lines")
	}
	if c.Resident() != 0 {
		t.Fatal("flush must empty the cache")
	}
}

// TestNewCacheRejectsNonPowerOfTwo: the set index is a mask, so a line
// count that is not a power of two would leave sets unreachable.
func TestNewCacheRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCache(3) did not panic")
		}
	}()
	NewCache(3)
}

func TestInstrEncodeDecodeRoundTrip(t *testing.T) {
	all := []Instr{
		{Op: OpHlt},
		{Op: OpMovi, Rd: 3, Imm: 0xdeadbeef},
		{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpLd, Rd: 4, Rs1: 5, Imm: 0x40},
		{Op: OpSt, Rs1: 6, Rs2: 7, Imm: 0x80},
		{Op: OpJlt, Rs1: 8, Rs2: 9, Imm: 0x1000},
		{Op: OpVmcall},
		{Op: OpSyscall},
	}
	for _, in := range all {
		var buf [InstrSize]byte
		in.Encode(buf[:])
		out, err := Decode(buf[:])
		if err != nil {
			t.Fatalf("decode(%v): %v", in, err)
		}
		if out != in {
			t.Fatalf("roundtrip: got %v, want %v", out, in)
		}
	}
}

func TestDecodeIllegal(t *testing.T) {
	buf := []byte{0xff, 0, 0, 0, 0, 0, 0, 0}
	if _, err := Decode(buf); err == nil {
		t.Fatal("expected illegal opcode error")
	}
	buf = []byte{byte(OpAdd), 200, 0, 0, 0, 0, 0, 0}
	if _, err := Decode(buf); err == nil {
		t.Fatal("expected out-of-range register error")
	}
	if _, err := Decode([]byte{1, 2}); err == nil {
		t.Fatal("expected short-buffer error")
	}
}

// loadAndRun assembles prog at base, grants the context RWX over all of
// memory, and runs until trap.
func loadAndRun(t *testing.T, m *Machine, a *Asm, base phys.Addr, maxInstr int) (Trap, *Core) {
	t.Helper()
	code, err := a.Assemble(base)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	if err := m.Mem.WriteAt(base, code); err != nil {
		t.Fatalf("load: %v", err)
	}
	core := m.Cores[0]
	core.InstallContext(&Context{Owner: 1, Filter: AllowAll{}, Entry: base})
	core.PC = base
	_, trap := core.Run(maxInstr)
	return trap, core
}

func TestAsmSumLoop(t *testing.T) {
	m := testMachine(t)
	// Sum 0..9 into r1.
	a := NewAsm()
	a.Movi(1, 0) // acc
	a.Movi(2, 0) // i
	a.Movi(3, 10)
	a.Label("loop")
	a.Add(1, 1, 2)
	a.Addi(2, 2, 1)
	a.Jlt(2, 3, "loop")
	a.Hlt()
	trap, core := loadAndRun(t, m, a, 0x1000, 1000)
	if trap.Kind != TrapHalt {
		t.Fatalf("trap = %v, want halt", trap)
	}
	if core.Regs[1] != 45 {
		t.Fatalf("sum = %d, want 45", core.Regs[1])
	}
}

func TestAsmMemoryOps(t *testing.T) {
	m := testMachine(t)
	if err := m.Mem.Write64(0x8000, 21); err != nil {
		t.Fatal(err)
	}
	a := NewAsm()
	a.Movi(1, 0x8000)
	a.Ld(2, 1, 0)   // r2 = 21
	a.Add(3, 2, 2)  // r3 = 42
	a.St(1, 8, 3)   // mem[0x8008] = 42
	a.Ldb(4, 1, 8)  // r4 = low byte 42
	a.Stb(1, 16, 4) // mem[0x8010] byte = 42
	a.Hlt()
	trap, core := loadAndRun(t, m, a, 0x1000, 100)
	if trap.Kind != TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	if core.Regs[3] != 42 || core.Regs[4] != 42 {
		t.Fatalf("r3=%d r4=%d", core.Regs[3], core.Regs[4])
	}
	v, _ := m.Mem.Read64(0x8008)
	if v != 42 {
		t.Fatalf("mem[0x8008] = %d", v)
	}
	b, _ := m.Mem.ReadByteAt(0x8010)
	if b != 42 {
		t.Fatalf("mem[0x8010] = %d", b)
	}
}

func TestAsmUndefinedLabel(t *testing.T) {
	a := NewAsm()
	a.Jmp("nowhere")
	if _, err := a.Assemble(0); err == nil {
		t.Fatal("expected undefined-label error")
	}
	b := NewAsm()
	b.Label("x").Label("x")
	b.Hlt()
	if _, err := b.Assemble(0); err == nil {
		t.Fatal("expected duplicate-label error")
	}
}

func TestCoreFaultsOnDeniedAccess(t *testing.T) {
	m := testMachine(t)
	e := NewEPT()
	base := phys.Addr(0x1000)
	// Code page executable, data page 0x8000 NOT mapped.
	if err := e.Map(phys.MakeRegion(base, phys.PageSize), PermRX); err != nil {
		t.Fatal(err)
	}
	a := NewAsm()
	a.Movi(1, 0x8000)
	a.Ld(2, 1, 0)
	a.Hlt()
	code := a.MustAssemble(base)
	if err := m.Mem.WriteAt(base, code); err != nil {
		t.Fatal(err)
	}
	core := m.Cores[0]
	core.InstallContext(&Context{Owner: 1, Filter: e, Entry: base, UsesEPT: true})
	core.PC = base
	_, trap := core.Run(100)
	if trap.Kind != TrapFault || trap.Addr != 0x8000 || !trap.Want.Allows(PermR) {
		t.Fatalf("trap = %v, want read fault at 0x8000", trap)
	}
	if core.FaultCount() != 1 {
		t.Fatalf("faults = %d", core.FaultCount())
	}
}

func TestCoreFaultsOnExecFetch(t *testing.T) {
	m := testMachine(t)
	e := NewEPT()
	// Page mapped read-write but not executable.
	if err := e.Map(phys.MakeRegion(0x1000, phys.PageSize), PermRW); err != nil {
		t.Fatal(err)
	}
	core := m.Cores[0]
	core.InstallContext(&Context{Owner: 1, Filter: e, Entry: 0x1000})
	core.PC = 0x1000
	trap := core.Step()
	if trap.Kind != TrapFault || !trap.Want.Allows(PermX) {
		t.Fatalf("trap = %v, want exec fault", trap)
	}
}

func TestRingSemantics(t *testing.T) {
	m := testMachine(t)
	osf := NewEPT() // reuse EPT structure as a first-level filter
	// OS grants user code only page 0x2000; kernel ring bypasses.
	if err := osf.Map(phys.MakeRegion(0x2000, phys.PageSize), PermRWX); err != nil {
		t.Fatal(err)
	}
	core := m.Cores[0]
	core.InstallContext(&Context{Owner: 1, Filter: AllowAll{}, OSFilter: osf})

	a := NewAsm()
	a.Movi(1, 0x5000)
	a.Ld(2, 1, 0)
	a.Hlt()
	code := a.MustAssemble(0x2000)
	if err := m.Mem.WriteAt(0x2000, code); err != nil {
		t.Fatal(err)
	}

	// User ring: load from 0x5000 denied by the OS filter.
	core.PC = 0x2000
	core.Ring = RingUser
	_, trap := core.Run(10)
	if trap.Kind != TrapFault || trap.Addr != 0x5000 {
		t.Fatalf("user-ring trap = %v, want fault at 0x5000", trap)
	}

	// Kernel ring: same code succeeds — the commodity bypass.
	core.InstallContext(core.Context()) // flush TLB
	core.PC = 0x2000
	core.Ring = RingKernel
	_, trap = core.Run(10)
	if trap.Kind != TrapHalt {
		t.Fatalf("kernel-ring trap = %v, want halt (privileged bypass)", trap)
	}
}

func TestVMCallAndSyscallTrap(t *testing.T) {
	m := testMachine(t)
	a := NewAsm()
	a.Movi(0, 7) // call number
	a.Vmcall()
	a.Movi(0, 9)
	a.Syscall()
	a.Hlt()
	trap, core := loadAndRun(t, m, a, 0x1000, 100)
	if trap.Kind != TrapVMCall {
		t.Fatalf("first trap = %v, want vmcall", trap)
	}
	if core.Regs[0] != 7 {
		t.Fatalf("r0 = %d", core.Regs[0])
	}
	// Resume: PC already advanced past VMCALL.
	_, trap = core.Run(100)
	if trap.Kind != TrapSyscall {
		t.Fatalf("second trap = %v, want syscall", trap)
	}
	if core.Regs[0] != 9 {
		t.Fatalf("r0 = %d", core.Regs[0])
	}
	_, trap = core.Run(100)
	if trap.Kind != TrapHalt {
		t.Fatalf("third trap = %v, want halt", trap)
	}
}

func TestContextSaveRestore(t *testing.T) {
	m := testMachine(t)
	core := m.Cores[0]
	ctx := &Context{Owner: 1, Filter: AllowAll{}}
	core.InstallContext(ctx)
	core.Regs[5] = 1234
	core.PC = 0x4000
	core.Ring = RingUser
	core.SaveInto(ctx)
	core.Regs[5] = 0
	core.PC = 0
	core.Ring = RingKernel
	core.RestoreFrom(ctx)
	if core.Regs[5] != 1234 || core.PC != 0x4000 || core.Ring != RingUser {
		t.Fatalf("restore mismatch: r5=%d pc=%v ring=%v", core.Regs[5], core.PC, core.Ring)
	}
}

func TestDeviceDMAWithIOMMU(t *testing.T) {
	m := testMachine(t)
	dev := m.DeviceByName("gpu0")
	if dev == nil {
		t.Fatal("gpu0 missing")
	}
	// Commodity default: DMA anywhere succeeds.
	if err := dev.DMAWrite(0x3000, []byte{1, 2, 3}); err != nil {
		t.Fatalf("permissive DMA failed: %v", err)
	}
	// Monitor takes over: deny by default, attach a filter.
	m.IOMMU.DefaultAllow = false
	if err := dev.DMAWrite(0x3000, []byte{1}); err == nil {
		t.Fatal("expected DMA denial with deny-by-default and no context")
	}
	f := NewEPT()
	if err := f.Map(phys.MakeRegion(0x4000, phys.PageSize), PermRW); err != nil {
		t.Fatal(err)
	}
	m.IOMMU.Attach(dev.ID, f)
	if err := dev.DMAWrite(0x4000, []byte{9}); err != nil {
		t.Fatalf("authorized DMA failed: %v", err)
	}
	if err := dev.DMAWrite(0x5000, []byte{9}); err == nil {
		t.Fatal("expected DMA outside filter to fail")
	}
	var dmaErr *DMAFaultError
	err := dev.DMACopy(0x4000, 0x5000, 8)
	if err == nil {
		t.Fatal("expected copy into unauthorized page to fail")
	}
	if !errorsAs(err, &dmaErr) {
		t.Fatalf("error type = %T", err)
	}
	// Cross-page check: region straddling an authorized and an
	// unauthorized page must be denied.
	if err := dev.DMAWrite(0x4ffc, []byte{1, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Fatal("expected straddling DMA to fail")
	}
}

// errorsAs avoids importing errors for one call in this test file.
func errorsAs(err error, target **DMAFaultError) bool {
	e, ok := err.(*DMAFaultError)
	if ok {
		*target = e
	}
	return ok
}

func TestClockAdvances(t *testing.T) {
	m := testMachine(t)
	a := NewAsm()
	for i := 0; i < 10; i++ {
		a.Nop()
	}
	a.Hlt()
	before := m.Clock.Cycles()
	trap, _ := loadAndRun(t, m, a, 0x1000, 100)
	if trap.Kind != TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	if m.Clock.Cycles() <= before {
		t.Fatal("clock did not advance")
	}
}

func TestMachineConfigValidation(t *testing.T) {
	if _, err := NewMachine(Config{MemBytes: 1 << 20, NumCores: 0}); err == nil {
		t.Fatal("expected zero-core config to fail")
	}
	if _, err := NewMachine(Config{MemBytes: 100, NumCores: 1}); err == nil {
		t.Fatal("expected unaligned memory to fail")
	}
}

func TestMachineLookups(t *testing.T) {
	m := testMachine(t)
	if m.Core(0) == nil || m.Core(99) != nil || m.Core(-1) != nil {
		t.Fatal("core lookup wrong")
	}
	if len(m.CoreIDs()) != 2 || len(m.DeviceIDs()) != 1 {
		t.Fatal("id enumeration wrong")
	}
	if m.DeviceByName("nope") != nil {
		t.Fatal("unknown device should be nil")
	}
}

// TestDeviceByNameLowestID: names need not be unique, and the lookup
// must not depend on map iteration order — with two nic0s it is always
// the one with ID 0.
func TestDeviceByNameLowestID(t *testing.T) {
	m, err := NewMachine(Config{MemBytes: 1 << 20, NumCores: 1,
		Devices: []DeviceConfig{{Name: "nic0", Class: DevNIC}, {Name: "nic0", Class: DevNIC}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if d := m.DeviceByName("nic0"); d == nil || d.ID != 0 {
			t.Fatalf("lookup %d returned %v, want the nic0 with ID 0", i, d)
		}
	}
}
