package hw

import (
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
)

// TestALUOperations executes every arithmetic/logic instruction and
// checks its architectural result.
func TestALUOperations(t *testing.T) {
	m := testMachine(t)
	a := NewAsm()
	a.Movi(1, 12)
	a.Movi(2, 5)
	a.Sub(3, 1, 2) // 7
	a.Mul(4, 1, 2) // 60
	a.And(5, 1, 2) // 4
	a.Or(6, 1, 2)  // 13
	a.Xor(7, 1, 2) // 9
	a.Movi(8, 2)
	a.Shl(9, 1, 8)  // 48
	a.Shr(10, 1, 8) // 3
	a.Mov(11, 9)    // 48
	a.Nop()
	a.Hlt()
	trap, core := loadAndRun(t, m, a, 0x1000, 100)
	if trap.Kind != TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	want := map[int]uint64{3: 7, 4: 60, 5: 4, 6: 13, 7: 9, 9: 48, 10: 3, 11: 48}
	for r, v := range want {
		if core.Regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, core.Regs[r], v)
		}
	}
	if core.InstrCount() == 0 {
		t.Fatal("no instructions retired")
	}
}

func TestJumpVariants(t *testing.T) {
	m := testMachine(t)
	a := NewAsm()
	a.Movi(1, 0)
	a.Jz(1, "taken") // r1==0: jump
	a.Movi(2, 99)    // skipped
	a.Label("taken")
	a.Movi(3, 1)
	a.Jnz(3, "taken2") // r3!=0: jump
	a.Movi(2, 98)      // skipped
	a.Label("taken2")
	a.Movi(4, 5)
	a.Movi(5, 9)
	a.Jlt(5, 4, "bad") // 9 < 5 false: fall through
	a.Movi(6, 42)
	a.Hlt()
	a.Label("bad")
	a.Movi(6, 7)
	a.Hlt()
	trap, core := loadAndRun(t, m, a, 0x1000, 100)
	if trap.Kind != TrapHalt {
		t.Fatalf("trap = %v", trap)
	}
	if core.Regs[2] != 0 || core.Regs[6] != 42 {
		t.Fatalf("r2=%d r6=%d", core.Regs[2], core.Regs[6])
	}
}

func TestDeviceDMACopyAndStats(t *testing.T) {
	m := testMachine(t)
	dev := m.Device(0)
	if err := m.Mem.WriteAt(0x3000, []byte("payload!")); err != nil {
		t.Fatal(err)
	}
	if err := dev.DMACopy(0x3000, 0x5000, 8); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := m.Mem.ReadAt(0x5000, got); err != nil || string(got) != "payload!" {
		t.Fatalf("copy result %q %v", got, err)
	}
	if dev.DMACount() != 1 {
		t.Fatalf("dma count = %d", dev.DMACount())
	}
	// Empty copy is a no-op.
	if err := dev.DMACopy(0x3000, 0x5000, 0); err != nil {
		t.Fatal(err)
	}
	// Read path.
	buf := make([]byte, 8)
	if err := dev.DMARead(0x3000, buf); err != nil || string(buf) != "payload!" {
		t.Fatalf("dma read %q %v", buf, err)
	}
	checks, denials := m.IOMMU.Stats()
	if checks == 0 {
		t.Fatal("no IOMMU checks recorded")
	}
	_ = denials
	if dev.String() == "" || dev.Class.String() != "accelerator" {
		t.Fatalf("device string: %v / %v", dev, dev.Class)
	}
	if DevGeneric.String() != "generic" || DeviceClass(99).String() == "" {
		t.Fatal("class names")
	}
}

func TestTLBFlushRegion(t *testing.T) {
	tlb := NewTLB(16)
	tlb.Insert(1, 5, PermRW, 0)
	tlb.Insert(1, 6, PermRW, 0)
	tlb.Insert(2, 5, PermR, 0)
	tlb.FlushRegion(phys.MakeRegion(5*phys.PageSize, phys.PageSize))
	// Page 5 gone in every address space; page 6 survives.
	if _, hit := tlb.Lookup(1, 5, 0); hit {
		t.Fatal("page 5 asid 1 survived")
	}
	if _, hit := tlb.Lookup(2, 5, 0); hit {
		t.Fatal("page 5 asid 2 survived")
	}
	if _, hit := tlb.Lookup(1, 6, 0); !hit {
		t.Fatal("page 6 flushed")
	}
	hits, misses, flushes := tlb.Stats()
	if hits == 0 || misses == 0 || flushes == 0 {
		t.Fatalf("stats: %d %d %d", hits, misses, flushes)
	}
}

func TestEPTEmptyAndPMPEntries(t *testing.T) {
	e := NewEPT()
	if e.Mappings() != nil {
		t.Fatal("empty EPT has mappings")
	}
	p := NewPMP(4)
	if err := p.Program(1, phys.MakeRegion(0, phys.PageSize), PermR); err != nil {
		t.Fatal(err)
	}
	entries := p.Entries()
	if len(entries) != 4 || !entries[1].Used() || entries[0].Used() {
		t.Fatalf("entries = %+v", entries)
	}
	if err := p.ClearEntry(9); err == nil {
		t.Fatal("out of range clear accepted")
	}
	if err := p.Lock(9); err == nil {
		t.Fatal("out of range lock accepted")
	}
}

func TestPermAndTrapStrings(t *testing.T) {
	if PermRWX.String() != "rwx" || PermNone.String() != "---" || PermR.String() != "r--" {
		t.Fatal("perm strings")
	}
	if TrapFault.String() != "fault" || TrapKind(99).String() == "" {
		t.Fatal("trap strings")
	}
	tr := Trap{Kind: TrapFault, Addr: 0x1000, Want: PermW, PC: 0x2000}
	if tr.String() == "" {
		t.Fatal("trap format")
	}
	ill := Trap{Kind: TrapIllegal, PC: 1, Info: "x"}
	if ill.String() == "" {
		t.Fatal("illegal format")
	}
	if RingKernel.String() != "ring0" || RingUser.String() != "ring3" {
		t.Fatal("ring strings")
	}
}

func TestInstrStrings(t *testing.T) {
	cases := []Instr{
		{Op: OpMovi, Rd: 1, Imm: 5},
		{Op: OpMov, Rd: 1, Rs1: 2},
		{Op: OpAddi, Rd: 1, Rs1: 2, Imm: 3},
		{Op: OpLd, Rd: 1, Rs1: 2, Imm: 8},
		{Op: OpSt, Rs1: 1, Rs2: 2, Imm: 8},
		{Op: OpJmp, Imm: 16},
		{Op: OpJz, Rs1: 1, Imm: 16},
		{Op: OpJlt, Rs1: 1, Rs2: 2, Imm: 16},
		{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: OpVmfunc},
	}
	for _, c := range cases {
		if c.String() == "" {
			t.Fatalf("empty String for %v", c.Op)
		}
	}
	if Opcode(200).String() == "" {
		t.Fatal("unknown opcode string")
	}
}

func TestCacheStatsAndMKTMEBounds(t *testing.T) {
	c := NewCache(0) // default size
	c.Touch(0)
	h, ms, fl := c.Stats()
	if h != 0 || ms != 1 || fl != 0 {
		t.Fatalf("stats: %d %d %d", h, ms, fl)
	}
	mem, _ := NewPhysMem(1 << 16)
	e := NewMKTME(nil)
	if _, err := e.RawView(mem, phys.MakeRegion(phys.Addr(1<<20), phys.PageSize)); err == nil {
		t.Fatal("out-of-bounds raw view accepted")
	}
}

func TestAsmLenAndMustAssemblePanics(t *testing.T) {
	a := NewAsm()
	a.Nop().Nop()
	if a.Len() != 2*InstrSize {
		t.Fatalf("len = %d", a.Len())
	}
	bad := NewAsm()
	bad.Jmp("nowhere")
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble did not panic on undefined label")
		}
	}()
	bad.MustAssemble(0)
}
