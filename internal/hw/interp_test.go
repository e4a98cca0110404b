package hw

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// The interpreter's oracle. refStep is the fetch the core performed
// before it had a decoded-page cache — the checked access, a locked read
// of the bytes, a Decode — followed by the same exec the core runs, so
// the two can differ only in what the cache changed. The tests below run
// both on identical machines and compare everything observable.

// refStep executes one instruction on c through the uncached fetch.
func refStep(c *Core) Trap {
	var t Trap
	defer c.publish()
	if c.stalled.Load() {
		return Trap{Kind: TrapMachineCheck, PC: c.PC, Info: "core stalled"}
	}
	if c.halted.Load() {
		return Trap{Kind: TrapHalt, PC: c.PC}
	}
	if ft := c.access(c.PC, PermX, InstrSize); ft != nil {
		return *ft
	}
	var raw [InstrSize]byte
	if err := c.mach.Mem.ReadAt(c.PC, raw[:]); err != nil {
		return Trap{Kind: TrapFault, Addr: c.PC, Want: PermX, PC: c.PC, Info: err.Error()}
	}
	ins, err := Decode(raw[:])
	if err != nil {
		return Trap{Kind: TrapIllegal, PC: c.PC, Info: err.Error()}
	}
	c.exec(&ins, &t)
	return t
}

// refRun is Run over refStep: up to maxInstrs retired instructions,
// stopping at the first trap.
func refRun(c *Core, maxInstrs int) (int, Trap) {
	start := c.InstrCount()
	for int(c.InstrCount()-start) < maxInstrs {
		if t := refStep(c); t.Kind != TrapNone {
			return int(c.InstrCount() - start), t
		}
	}
	return int(c.InstrCount() - start), Trap{Kind: TrapNone, PC: c.PC}
}

// coreState is everything a step can change outside memory.
type coreState struct {
	regs                   [NumRegs]uint64
	pc                     phys.Addr
	ring                   Ring
	asid                   uint64
	halted, stalled, armed bool
	timer                  int
	cycles, machCycles     uint64
	instrs, faults         uint64
	tlbHits, tlbMisses     uint64
	tlbFlushes             uint64
	mruHits, mruMisses     uint64
	cacheHits, cacheMisses uint64
	cacheFlushed           uint64
	resident               int
}

func snapshot(c *Core) coreState {
	s := coreState{
		regs: c.Regs, pc: c.PC, ring: c.Ring, asid: c.Context().ASID,
		halted: c.Halted(), stalled: c.Stalled(), armed: c.timerArmed, timer: c.timer,
		cycles: c.Cycles(), machCycles: c.mach.Clock.Cycles(),
		instrs: c.InstrCount(), faults: c.FaultCount(),
		resident: c.cache.Resident(),
	}
	s.tlbHits, s.tlbMisses, s.tlbFlushes = c.tlb.Stats()
	s.mruHits, s.mruMisses = c.MRUStats()
	s.cacheHits, s.cacheMisses, s.cacheFlushed = c.cache.Stats()
	return s
}

// Memory layout of the differential machines. Pages 1 and 9 share a
// decoded-page slot, so jumping between them evicts.
const (
	fzPages   = 16
	fzCode    = phys.Addr(1 * phys.PageSize) // rwx: the program, and its own stores
	fzData    = phys.Addr(2 * phys.PageSize) // rw
	fzROCode  = phys.Addr(3 * phys.PageSize) // r-x
	fzHole    = phys.Addr(4 * phys.PageSize) // unmapped
	fzCode9   = phys.Addr(9 * phys.PageSize) // rwx, same slot as fzCode
	fzMaxProg = 32                           // instruction words in the initial program
)

// fzInjector fires one fault action after a number of accesses. It is
// installed on its machine only while armed, and removes itself when it
// fires, so that between injections the core can take the fast exit,
// which applies only with no injector installed.
type fzInjector struct {
	m     *Machine
	after int
	act   FaultAction
}

// arm installs the injector to fire act after that many accesses.
func (f *fzInjector) arm(after int, act FaultAction) {
	f.after, f.act = after, act
	f.m.SetFaultInjector(f)
}

func (f *fzInjector) OnAccess(phys.CoreID, phys.Addr, Perm) FaultAction {
	if f.after > 0 {
		f.after--
		return FaultNone
	}
	f.m.SetFaultInjector(nil)
	return f.act
}
func (f *fzInjector) OnRaiseIRQ(phys.DeviceID, uint32) bool { return false }
func (f *fzInjector) TakeSpuriousIRQ() (IRQ, bool)          { return IRQ{}, false }

// fzMachine is one side of the differential pair.
type fzMachine struct {
	m    *Machine
	c    *Core
	ept  *EPT
	inj  *fzInjector
	step func(*Core) Trap
	run  func(*Core, int) (int, Trap)
}

func newFzMachine(t testing.TB, cached bool) *fzMachine {
	t.Helper()
	m, err := NewMachine(Config{MemBytes: fzPages * phys.PageSize, NumCores: 1, IOMMUAllowByDefault: true,
		Devices: []DeviceConfig{{Name: "nic0", Class: DevNIC}}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEPT()
	for _, mp := range []EPTMapping{
		{phys.MakeRegion(0, phys.PageSize), PermRW},
		{phys.MakeRegion(fzCode, phys.PageSize), PermRWX},
		{phys.MakeRegion(fzData, phys.PageSize), PermRW},
		{phys.MakeRegion(fzROCode, phys.PageSize), PermRX},
		{phys.MakeRegion(fzHole+phys.PageSize, (fzPages-5)*phys.PageSize), PermRWX},
	} {
		if err := e.Map(mp.Region, mp.Perm); err != nil {
			t.Fatal(err)
		}
	}
	// The first-level filter (ring 3 only) hides page 5 and makes the
	// data page read-only.
	os := NewEPT()
	if err := os.Map(phys.MakeRegion(0, fzPages*phys.PageSize), PermRWX); err != nil {
		t.Fatal(err)
	}
	if err := os.Map(phys.MakeRegion(5*phys.PageSize, phys.PageSize), PermNone); err != nil {
		t.Fatal(err)
	}
	if err := os.Map(phys.MakeRegion(fzData, phys.PageSize), PermR); err != nil {
		t.Fatal(err)
	}
	c := m.Cores[0]
	c.InstallContext(&Context{Owner: 1, Filter: e, OSFilter: os, Entry: fzCode, UsesEPT: true, ASID: 1})
	c.SetVMFuncEntry(1, 0, &Context{Owner: 1, Filter: e, Entry: fzCode, UsesEPT: true, ASID: 2})
	c.PC = fzCode
	c.Regs = [NumRegs]uint64{0, uint64(fzCode), uint64(fzData), uint64(fzCode + phys.PageSize - 4),
		uint64(fzCode9), ^uint64(7), 6, 7, 8, uint64(fzROCode), uint64(fzHole), 11, 12, 13, 0, 15}
	f := &fzMachine{m: m, c: c, ept: e, inj: &fzInjector{m: m}}
	if cached {
		f.step, f.run = (*Core).Step, (*Core).Run
	} else {
		f.step, f.run = refStep, refRun
	}
	return f
}

// fzWord turns eight arbitrary bytes into an instruction word that is
// usually legal and whose immediate usually lands inside the machine:
// opcodes 24 and 25 and rd 16 are illegal, bit 16 of the immediate puts
// a target past the end of memory.
func fzWord(b []byte) []byte {
	return []byte{b[0] % (uint8(opMax) + 2), b[1] % (NumRegs + 1), b[2] % NumRegs, b[3] % NumRegs,
		b[4], b[5], b[6] & 1, 0}
}

// fzScript reads a differential script off the front of a byte slice.
type fzScript struct{ data []byte }

func (s *fzScript) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *fzScript) word() []byte {
	var raw [InstrSize]byte
	s.data = s.data[copy(raw[:], s.data):]
	return fzWord(raw[:])
}

// Script events. A script is a program length, that many words, and
// then events until the bytes run out; event bytes at or above fzEvents
// wrap.
const (
	fzStep     = iota // one instruction
	fzRun             // Run(arg%64+1)
	fzWriteAt         // Mem.WriteAt(code+arg, word): arg is a byte offset, so words can be half overwritten
	fzDMAWrite        // the same through the device
	fzReload          // Mem.Zero(code page), then arg%8 new words at its start (scrub, then reuse)
	fzToggleX         // revoke or restore X on the code page (a generation bump)
	fzInject          // install the injector: arg&1 stall or abort, after arg>>1&7 accesses
	fzSetPC           // clear halt and stall; PC = fzTargets[arg%len] + arg2
	fzFlush           // arg%3: TLB flush, TLB region flush of the code page, cache flush
	fzTimer           // ArmTimer(arg%16)
	fzRing            // switch ring (the first-level filter applies in ring 3)
	fzEvents
)

var fzTargets = [...]phys.Addr{fzCode, fzCode9, fzCode + phys.PageSize - 8, fzPages*phys.PageSize - 16,
	fzROCode, fzHole, fzData, 5 * phys.PageSize}

// apply performs one scripted event on f. It returns the trap and the
// count an execution event produced, and text describing what it did.
func (f *fzMachine) apply(t testing.TB, ev byte, arg, arg2 byte, word []byte, reload []byte) (Trap, int, string) {
	c := f.c
	code := phys.MakeRegion(fzCode, phys.PageSize)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	switch ev {
	case fzRun:
		n, trap := f.run(c, int(arg%64)+1)
		return trap, n, fmt.Sprintf("run %d", arg%64+1)
	case fzWriteAt:
		must(f.m.Mem.WriteAt(fzCode+phys.Addr(arg), word))
		return Trap{}, 0, fmt.Sprintf("WriteAt code+%d % x", arg, word)
	case fzDMAWrite:
		must(f.m.Devices[0].DMAWrite(fzCode+phys.Addr(arg), word))
		return Trap{}, 0, fmt.Sprintf("DMAWrite code+%d % x", arg, word)
	case fzReload:
		must(f.m.Mem.Zero(code))
		must(f.m.Mem.WriteAt(fzCode, reload))
		return Trap{}, 0, fmt.Sprintf("zero code page, reload % x", reload)
	case fzToggleX:
		p := PermRWX
		if f.ept.Lookup(fzCode) == PermRWX {
			p = PermRW
		}
		must(f.ept.Map(code, p))
		return Trap{}, 0, fmt.Sprintf("code page now %v", p)
	case fzInject:
		act := FaultAbort
		if arg&1 != 0 {
			act = FaultStall
		}
		f.inj.arm(int(arg>>1&7), act)
		return Trap{}, 0, fmt.Sprintf("inject %v after %d", act, arg>>1&7)
	case fzSetPC:
		c.ClearHalt()
		c.ClearStall()
		c.PC = fzTargets[int(arg)%len(fzTargets)] + phys.Addr(arg2)
		return Trap{}, 0, fmt.Sprintf("pc = %v", c.PC)
	case fzFlush:
		switch arg % 3 {
		case 0:
			c.tlb.Flush()
		case 1:
			c.tlb.FlushRegion(code)
		default:
			return Trap{}, int(c.cache.Flush()), "cache flush"
		}
		return Trap{}, 0, "tlb flush"
	case fzTimer:
		c.ArmTimer(int(arg % 16))
		return Trap{}, 0, fmt.Sprintf("timer %d", arg%16)
	case fzRing:
		c.Ring ^= RingUser
		return Trap{}, 0, fmt.Sprintf("ring %v", c.Ring)
	default:
		return f.step(c), 0, "step"
	}
}

// runDifferential plays script on a cached and a reference machine and
// fails at the first event after which they differ.
func runDifferential(t testing.TB, script []byte) {
	s := &fzScript{data: script}
	a, b := newFzMachine(t, true), newFzMachine(t, false)
	n := int(s.byte()) % (fzMaxProg + 1)
	var prog []byte
	for i := 0; i < n; i++ {
		prog = append(prog, s.word()...)
	}
	for _, f := range []*fzMachine{a, b} {
		if err := f.m.Mem.WriteAt(fzCode, prog); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; len(s.data) > 0 && i < 4096; i++ {
		ev := s.byte() % fzEvents
		var arg, arg2 byte
		var word, reload []byte
		switch ev {
		case fzRun, fzInject, fzFlush, fzTimer:
			arg = s.byte()
		case fzSetPC:
			arg, arg2 = s.byte(), s.byte()
		case fzWriteAt, fzDMAWrite:
			arg, word = s.byte(), s.word()
		case fzReload:
			for k := int(s.byte() % 8); k > 0; k-- {
				reload = append(reload, s.word()...)
			}
		}
		ta, na, what := a.apply(t, ev, arg, arg2, word, reload)
		tb, nb, _ := b.apply(t, ev, arg, arg2, word, reload)
		if ta != tb || na != nb {
			t.Fatalf("event %d (%s): cached returned %d, %+v; reference %d, %+v", i, what, na, ta, nb, tb)
		}
		if sa, sb := snapshot(a.c), snapshot(b.c); sa != sb {
			t.Fatalf("event %d (%s): state differs\ncached    %+v\nreference %+v", i, what, sa, sb)
		}
		if !sameMemory(a.m.Mem, b.m.Mem) {
			t.Fatalf("event %d (%s): memory differs", i, what)
		}
	}
}

// sameMemory reports whether two memories hold the same bytes, compared
// page by page through what each page reads as.
func sameMemory(a, b *PhysMem) bool {
	if a.Size() != b.Size() {
		return false
	}
	for pg := range a.frames {
		if *a.page(uint64(pg)) != *b.page(uint64(pg)) {
			return false
		}
	}
	return true
}

// fzSeed assembles a script: the program, then events given as byte
// slices (event code first, arguments after; a word argument is the
// eight bytes of one encoded instruction, which fzWord leaves alone).
func fzSeed(prog []Instr, events ...[]byte) []byte {
	out := []byte{byte(len(prog))}
	for _, ins := range prog {
		out = ins.EncodeTo(out)
	}
	for _, ev := range events {
		out = append(out, ev...)
	}
	return out
}

func fzEnc(ins Instr) []byte { return ins.EncodeTo(nil) }

// steps is n step events.
func steps(n int) []byte { return make([]byte, n) } // fzStep == 0

// fzSeeds are the scenarios the decoded-page cache has to get right;
// the fuzzer starts from them.
func fzSeeds() [][]byte {
	code := uint32(fzCode)
	nop, hlt := Instr{Op: OpNop}, Instr{Op: OpHlt}
	movi := func(rd uint8, v uint32) Instr { return Instr{Op: OpMovi, Rd: rd, Imm: v} }
	jmp := func(to uint32) Instr { return Instr{Op: OpJmp, Imm: to} }
	// A word as a register value, for st: movi r7, 42 encoded.
	movi42 := binary.LittleEndian.Uint64(fzEnc(movi(7, 42)))
	loadWord := []Instr{ // r6 = movi42, built from two 32-bit halves
		movi(6, uint32(movi42>>32)), movi(8, 32), {Op: OpShl, Rd: 6, Rs1: 6, Rs2: 8},
		movi(8, uint32(movi42)), {Op: OpOr, Rd: 6, Rs1: 6, Rs2: 8},
	}
	at := func(i int) uint32 { return code + uint32(i)*InstrSize }
	spin := []Instr{nop, nop, jmp(at(0))}
	return [][]byte{
		// A loop, then budgeted runs: the plain cached path.
		fzSeed([]Instr{movi(6, 0), movi(7, 5), {Op: OpAddi, Rd: 6, Rs1: 6, Imm: 1}, {Op: OpJlt, Rs1: 6, Rs2: 7, Imm: at(2)}, hlt},
			steps(3), []byte{fzRun, 3}, []byte{fzRun, 63}, steps(2)),
		// Store over a slot that has not been executed yet, then reach it.
		fzSeed(append(append([]Instr{}, loadWord...), Instr{Op: OpSt, Rs1: 1, Rs2: 6, Imm: 7 * InstrSize}, nop, hlt, hlt),
			steps(9)),
		// Store over a slot after it was executed, then jump back to it.
		fzSeed(append(append([]Instr{jmp(at(2)), hlt}, loadWord...), Instr{Op: OpSt, Rs1: 1, Rs2: 6, Imm: 1 * InstrSize}, jmp(at(1)), hlt),
			[]byte{fzSetPC, 0, 1 * InstrSize}, steps(1), []byte{fzSetPC, 0, 0}, steps(10)),
		// Byte store turning an executed nop into a hlt and an unexecuted hlt into a nop.
		fzSeed([]Instr{nop, movi(6, uint32(OpHlt)), movi(7, uint32(OpNop)), {Op: OpStb, Rs1: 1, Rs2: 6, Imm: 0},
			{Op: OpStb, Rs1: 1, Rs2: 7, Imm: 6 * InstrSize}, jmp(at(6)), hlt, jmp(at(0))},
			steps(12)),
		// Unaligned, straddling and out-of-range jump targets, illegal words.
		fzSeed([]Instr{jmp(at(1) + 4), nop, nop, jmp(code + phys.PageSize - 4), {Op: opMax}, {Op: OpNop, Rd: 16}, jmp(0x10000)},
			steps(4), []byte{fzSetPC, 0, 3 * InstrSize}, steps(2), []byte{fzSetPC, 0, 4 * InstrSize}, steps(1),
			[]byte{fzSetPC, 0, 5 * InstrSize}, steps(1), []byte{fzSetPC, 0, 6 * InstrSize}, steps(2),
			[]byte{fzSetPC, 3, 8}, steps(1), []byte{fzSetPC, 3, 13}, steps(1), []byte{fzSetPC, 2, 4}, steps(1)),
		// WriteAt and DMAWrite over an executed instruction, whole and half.
		fzSeed([]Instr{nop, nop, jmp(at(0))},
			steps(4), append([]byte{fzWriteAt, 0}, fzEnc(movi(6, 9))...), steps(3),
			append([]byte{fzDMAWrite, 8}, fzEnc(hlt)...), steps(3),
			[]byte{fzSetPC, 0, 0}, append([]byte{fzWriteAt, 4}, fzEnc(movi(0, 0))...), steps(3)),
		// Scrub, then reuse: zero the code page and load different code.
		fzSeed([]Instr{movi(6, 1), nop, jmp(at(0))},
			steps(5), append([]byte{fzReload, 2}, append(fzEnc(movi(6, 2)), fzEnc(hlt)...)...), steps(3),
			[]byte{fzSetPC, 0, 0}, steps(3), []byte{fzReload, 0}, []byte{fzSetPC, 0, 0}, steps(2)),
		// Revoke X on the page between steps, restore it, with and without a shootdown.
		fzSeed([]Instr{nop, jmp(at(0))},
			steps(3), []byte{fzToggleX}, steps(2), []byte{fzFlush, 0}, steps(2), []byte{fzToggleX}, steps(1),
			[]byte{fzFlush, 1}, steps(3)),
		// Injected machine check and stall on a cached fetch; timer; ring 3 under the first-level filter.
		fzSeed([]Instr{{Op: OpLd, Rd: 6, Rs1: 2}, {Op: OpSt, Rs1: 2, Rs2: 6, Imm: 8}, jmp(at(0))},
			steps(4), []byte{fzInject, 2 << 1}, steps(4), []byte{fzInject, 1<<1 | 1}, steps(3), []byte{fzSetPC, 0, 0},
			[]byte{fzTimer, 2}, steps(3), []byte{fzRing}, steps(3), []byte{fzFlush, 2}, []byte{fzRun, 9}),
		// Two pages sharing a slot, vmfunc, vmcall, syscall.
		fzSeed([]Instr{nop, {Op: OpVmfunc}, {Op: OpVmcall}, {Op: OpSyscall}, jmp(uint32(fzCode9))},
			append([]byte{fzDMAWrite, 0}, fzEnc(nop)...), steps(5),
			[]byte{fzSetPC, 1, 0}, append([]byte{fzReload, 1}, fzEnc(jmp(uint32(fzCode9)))...), steps(2),
			[]byte{fzSetPC, 0, 0}, steps(4)),

		// The fast exit. Each seed gets a loop hot — every fetch then
		// takes it — and breaks one of its preconditions between two
		// fetches.
		// Loads and stores to four pages besides the code page: the
		// round-robin fill evicts the code page's MRU way every iteration.
		fzSeed([]Instr{{Op: OpLd, Rd: 8, Rs1: 2}, {Op: OpSt, Rs1: 4, Rs2: 8, Imm: 16}, {Op: OpLd, Rd: 8, Rs1: 0},
			movi(11, 6*phys.PageSize), {Op: OpSt, Rs1: 11, Rs2: 8}, jmp(at(0))},
			steps(14), []byte{fzRun, 40}, steps(6)),
		// A generation bump with no flush: the way goes stale, the TLB
		// entry does not (non-strict), so access executes from it.
		fzSeed(spin, steps(8), []byte{fzToggleX}, steps(3), []byte{fzRun, 9}, []byte{fzToggleX}, steps(3), []byte{fzRun, 9}),
		// Each flush kind: TLB, TLB region, cache (a miss on the exit).
		fzSeed(spin, steps(8), []byte{fzFlush, 0}, steps(3), []byte{fzFlush, 1}, steps(3), []byte{fzFlush, 2}, steps(3),
			[]byte{fzRun, 9}),
		// Into ring 3, where the first-level filter applies, and back.
		fzSeed(spin, steps(8), []byte{fzRing}, steps(3), []byte{fzRun, 9}, []byte{fzRing}, steps(3), []byte{fzRun, 9}),
		// An injected abort mid-loop, then a stall, then both cleared.
		fzSeed(spin, steps(8), []byte{fzInject, 2 << 1}, []byte{fzRun, 9}, steps(2), []byte{fzInject, 1<<1 | 1}, steps(3),
			[]byte{fzSetPC, 0, 0}, steps(4), []byte{fzRun, 9}),
		// A vmfunc to the view tagged ASID 2, then a fetch of a word
		// already decoded under ASID 1: the last way has the wrong tag.
		fzSeed([]Instr{nop, nop, {Op: OpVmfunc}, nop, hlt},
			[]byte{fzSetPC, 0, 3 * InstrSize}, steps(1), []byte{fzSetPC, 0, 2 * InstrSize}, steps(3)),
		// A store into the loop's own page, to a word it never executes:
		// the next fetch finds the page's version moved.
		fzSeed([]Instr{{Op: OpSt, Rs1: 1, Rs2: 0, Imm: 20 * InstrSize}, nop, jmp(at(0))},
			steps(9), []byte{fzRun, 30}, steps(3)),
	}
}

// FuzzStepDifferential is the decoded-page cache's oracle: a random
// program with random interference between steps must leave the cached
// and the uncached interpreter in identical states after every event.
func FuzzStepDifferential(f *testing.F) {
	for _, s := range fzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) { runDifferential(t, script) })
}

// TestAccessStraddlingPageFaults: an access whose bytes reach into the
// next page is denied before any filter is consulted — only the first
// page was ever going to be checked.
func TestAccessStraddlingPageFaults(t *testing.T) {
	const secret = 0x1122334455667788
	setup := func(t *testing.T, prog *Asm) (*Machine, *Core) {
		m := testMachine(t)
		e := NewEPT()
		// The domain holds pages 1 (code) and 2; page 3 is not its own.
		if err := e.Map(phys.MakeRegion(0x1000, phys.PageSize), PermRX); err != nil {
			t.Fatal(err)
		}
		if err := e.Map(phys.MakeRegion(0x2000, phys.PageSize), PermRWX); err != nil {
			t.Fatal(err)
		}
		if err := m.Mem.Write64(0x3000, secret); err != nil {
			t.Fatal(err)
		}
		if err := m.Mem.WriteAt(0x1000, prog.MustAssemble(0x1000)); err != nil {
			t.Fatal(err)
		}
		c := m.Cores[0]
		c.InstallContext(&Context{Owner: 1, Filter: e, Entry: 0x1000, UsesEPT: true})
		c.PC = 0x1000
		return m, c
	}
	wantStraddle := func(t *testing.T, c *Core, trap Trap, addr phys.Addr, want Perm) {
		t.Helper()
		if trap.Kind != TrapFault || trap.Addr != addr || trap.Want != want || trap.Info != "access straddles a page boundary" {
			t.Fatalf("trap = %+v, want a straddle fault for %v at %v", trap, want, addr)
		}
		if c.FaultCount() != 1 {
			t.Fatalf("fault count = %d, want 1", c.FaultCount())
		}
	}

	t.Run("load", func(t *testing.T) {
		_, c := setup(t, NewAsm().Movi(1, 0x2ffc).Ld(2, 1, 0).Hlt())
		_, trap := c.Run(10)
		wantStraddle(t, c, trap, 0x2ffc, PermR)
		if c.Regs[2] != 0 {
			t.Fatalf("r2 = %#x: bytes of the unmapped page leaked", c.Regs[2])
		}
	})
	t.Run("store", func(t *testing.T) {
		m, c := setup(t, NewAsm().Movi(1, 0x2ffc).Movi(2, 0xffffffff).St(1, 0, 2).Hlt())
		_, trap := c.Run(10)
		wantStraddle(t, c, trap, 0x2ffc, PermW)
		if v, _ := m.Mem.Read64(0x3000); v != secret {
			t.Fatalf("unmapped page now holds %#x", v)
		}
		if v, _ := m.Mem.Read64(0x2ff8); v != 0 {
			t.Fatalf("the store was partly performed: %#x", v)
		}
	})
	t.Run("bytes at the last byte", func(t *testing.T) {
		m, c := setup(t, NewAsm().Movi(1, 0x2fff).Movi(2, 0xab).Stb(1, 0, 2).Ldb(3, 1, 0).
			Movi(1, 0x2ff8).Ld(4, 1, 0).Hlt())
		if _, trap := c.Run(10); trap.Kind != TrapHalt {
			t.Fatalf("trap = %v, want halt", trap)
		}
		if c.Regs[3] != 0xab || c.Regs[4] != 0xab<<56 {
			t.Fatalf("r3 = %#x, r4 = %#x", c.Regs[3], c.Regs[4])
		}
		if v, _ := m.Mem.Read64(0x3000); v != secret {
			t.Fatalf("next page changed: %#x", v)
		}
	})
	t.Run("fetch", func(t *testing.T) {
		m, c := setup(t, NewAsm().Hlt())
		// Four bytes of a movi at the end of page 2; page 3 would supply
		// the immediate.
		if err := m.Mem.WriteAt(0x2ffc, []byte{byte(OpMovi), 5, 0, 0}); err != nil {
			t.Fatal(err)
		}
		c.PC = 0x2ffc
		n, trap := c.Run(10)
		wantStraddle(t, c, trap, 0x2ffc, PermX)
		if n != 0 || c.Regs[5] != 0 {
			t.Fatalf("retired %d, r5 = %#x", n, c.Regs[5])
		}
	})
}

// spinProgram is a loop whose exit is one instruction the test rewrites:
//
//	loop: addi r1, r1, 1
//	exit: jmp loop        <- becomes hlt
const spinExit = fzCode + InstrSize

func loadSpin(t *testing.T, m *Machine) {
	t.Helper()
	a := NewAsm()
	a.Label("loop").Addi(1, 1, 1).Jmp("loop")
	if err := m.Mem.WriteAt(fzCode, a.MustAssemble(fzCode)); err != nil {
		t.Fatal(err)
	}
}

// TestRunObservesPublishedWrites: a core spinning through Run after Run
// in its own goroutine executes from its decoded-page cache; a write to
// the loop's exit instruction from the test's goroutine — through the
// CPU-side store path, through DMA, and through the scrub path — must
// be executed by every Run that starts after the write returned. The
// runner tells the test, over a channel, that a Run has started after
// the test asked; that Run must not complete its budget.
func TestRunObservesPublishedWrites(t *testing.T) {
	hlt := binary.LittleEndian.Uint64(fzEnc(Instr{Op: OpHlt}))
	writes := []struct {
		name string
		do   func(*Machine) error
		want TrapKind
	}{
		{"Write64", func(m *Machine) error { return m.Mem.Write64(spinExit, hlt) }, TrapHalt},
		{"DMAWrite", func(m *Machine) error { return m.Devices[0].DMAWrite(spinExit, fzEnc(Instr{Op: OpHlt})) }, TrapHalt},
		// A zeroed word is a hlt, and so is the loop head: the Run that
		// starts after Zero halts on its first fetch wherever its PC is.
		{"Zero", func(m *Machine) error { return m.Mem.Zero(phys.MakeRegion(fzCode, phys.PageSize)) }, TrapHalt},
	}
	for _, w := range writes {
		t.Run(w.name, func(t *testing.T) {
			f := newFzMachine(t, true)
			loadSpin(t, f.m)
			const budget = 64
			written := make(chan struct{}) // closed once the write has returned
			type result struct {
				after bool // this Run started after written was closed
				n     int
				trap  Trap
			}
			results := make(chan result, 1)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					after := false
					select {
					case <-written:
						after = true
					default:
					}
					n, trap := f.c.Run(budget)
					if after || trap.Kind != TrapNone {
						results <- result{after, n, trap}
						return
					}
					runtime.Gosched()
				}
			}()
			// Let the loop get hot in the cache before rewriting it.
			for f.c.InstrCount() < 10*budget {
				runtime.Gosched()
			}
			if err := w.do(f.m); err != nil {
				t.Error(err)
			}
			close(written)
			r := <-results
			wg.Wait()
			// Either the Run in flight during the write already saw it, or
			// the first Run to start afterwards did; in both cases the
			// core stopped on the new instruction.
			if r.trap.Kind != w.want {
				t.Fatalf("run (started after the write: %v) retired %d and returned %v, want %v",
					r.after, r.n, r.trap, w.want)
			}
		})
	}
}

// TestFlushDuringRun: the monitor's cross-core cleanups flush a running
// core's cache and TLB. There must be no data race, every line a Flush
// reports is one it cleared (so CacheFlushLine charges stay exact: what
// the flushes report plus what is left resident equals what the misses
// made resident), and the core's execution is unaffected.
func TestFlushDuringRun(t *testing.T) {
	f := newFzMachine(t, true)
	// Walk the data page line by line, forever.
	a := NewAsm()
	a.Label("top").Movi(6, 0).Movi(7, phys.PageSize)
	a.Label("loop").Add(8, 2, 6).Ld(9, 8, 0).Addi(6, 6, CacheLineSize).Jlt(6, 7, "loop").Jmp("top")
	if err := f.m.Mem.WriteAt(fzCode, a.MustAssemble(fzCode)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n, trap := f.c.Run(256); n != 256 || trap.Kind != TrapNone {
				t.Errorf("run retired %d, trap %v", n, trap)
				return
			}
			runtime.Gosched()
		}
	}()
	var cleared uint64
	for i := 0; i < 200; i++ {
		cleared += f.c.CacheUnit().Flush()
		f.c.TLBUnit().Flush()
		f.c.TLBUnit().FlushRegion(phys.MakeRegion(fzData, phys.PageSize))
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	cleared += f.c.CacheUnit().Flush()
	_, misses, flushed := f.c.CacheUnit().Stats()
	if flushed != cleared {
		t.Fatalf("flushes returned %d lines in total, the cache counted %d", cleared, flushed)
	}
	// Every miss made one line resident; a line leaves only by a flush
	// or by a conflicting miss. The walk touches 64 data lines and the
	// code lines, all in distinct sets, so nothing conflicts.
	if cleared != misses {
		t.Fatalf("cleared %d lines, but %d misses made lines resident", cleared, misses)
	}
	if f.c.CacheUnit().Resident() != 0 {
		t.Fatalf("%d lines resident after the last flush", f.c.CacheUnit().Resident())
	}
}

// TestRunPublishesCounters: whatever budget Run is given and whatever
// ends it, the counters read after it returns are the ones the
// reference interpreter, which publishes after every instruction, has
// at the same point; and the trap event Run emits carries the clock
// value including that Run's own cycles.
func TestRunPublishesCounters(t *testing.T) {
	prog := NewAsm()
	prog.Movi(6, 0).Movi(7, 40)
	prog.Label("loop").Ld(8, 2, 0).Add(8, 8, 6).St(2, 0, 8).Addi(6, 6, 1).Jlt(6, 7, "loop")
	prog.Vmcall().Syscall().Movi(1, 0x4000).Ld(9, 1, 0).Hlt()
	a, b := newFzMachine(t, true), newFzMachine(t, false)
	tr := a.m.NewTracer(64)
	a.m.SetTracer(tr)
	for _, f := range []*fzMachine{a, b} {
		if err := f.m.Mem.WriteAt(fzCode, prog.MustAssemble(fzCode)); err != nil {
			t.Fatal(err)
		}
	}
	var traps []Trap
	// Core.Cycles after each Run, as the interpreter this one replaced
	// (one clock update per charge) reported it.
	cycles := []uint64{103, 214, 258, 258, 653, 1450, 1492, 1561, 1565}
	for i, budget := range []int{1, 2, 7, 0, 64, 1000, 1000, 1000, 5} {
		na, ta := a.c.Run(budget)
		if a.c.Cycles() != cycles[i] {
			t.Fatalf("run %d (budget %d): core at cycle %d, want %d", i, budget, a.c.Cycles(), cycles[i])
		}
		nb, tb := refRun(b.c, budget)
		if na != nb || ta != tb {
			t.Fatalf("run %d (budget %d): cached %d, %+v; reference %d, %+v", i, budget, na, ta, nb, tb)
		}
		if sa, sb := snapshot(a.c), snapshot(b.c); sa != sb {
			t.Fatalf("run %d (budget %d): state differs\ncached    %+v\nreference %+v", i, budget, sa, sb)
		}
		if ta.Kind != TrapNone {
			traps = append(traps, ta)
		}
		if ta.Kind == TrapFault {
			a.c.PC += InstrSize // step over the load from the unmapped page
			b.c.PC += InstrSize
		}
	}
	if !a.c.Halted() {
		t.Fatalf("program did not finish: pc=%v", a.c.PC)
	}
	// The golden: one KTrap per trap, stamped with the machine clock at
	// the end of the Run that took it — values recorded, like cycles
	// above, at the parent of the change that introduced publication.
	want := []struct {
		kind  TrapKind
		cycle uint64
	}{{TrapVMCall, 1450}, {TrapSyscall, 1492}, {TrapFault, 1561}, {TrapHalt, 1565}}
	var got []trace.Event
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KTrap {
			got = append(got, ev)
		}
	}
	if len(got) != len(want) || len(traps) != len(want) {
		t.Fatalf("traced %d traps, returned %d, want %d: %v", len(got), len(traps), len(want), got)
	}
	for i, w := range want {
		if TrapKind(got[i].Aux) != w.kind || got[i].Cycle != w.cycle {
			t.Errorf("trap %d: traced %v at cycle %d, want %v at %d", i, TrapKind(got[i].Aux), got[i].Cycle, w.kind, w.cycle)
		}
	}
}

// runLoop is one shape of guest code the interpreter's allocation pin
// and BenchmarkRun execute: 2,003 instructions from base to a hlt.
type runLoop struct {
	name string
	base phys.Addr
	prog *Asm
}

// loopInstrs is what each runLoop retires, its hlt included.
const loopInstrs = 2003

// runLoops returns the three shapes:
//
//   - alu is the repository's BenchmarkGuestExecution loop, two ALU
//     instructions an iteration: every fetch takes the fast exit;
//   - ldst adds a load and a store to the data page, so every fetch
//     after one of them finds the MRU way of the data page and falls
//     through to access;
//   - crosspage straddles two code pages, two instructions on each, so
//     the first fetch on each page falls through and the second takes
//     the exit.
func runLoops() []runLoop {
	alu := NewAsm()
	alu.Movi(1, 0).Movi(2, 1000)
	alu.Label("loop").Addi(1, 1, 1).Jlt(1, 2, "loop").Hlt()
	ldst := NewAsm()
	ldst.Movi(1, 0).Movi(2, 500)
	ldst.Label("loop").Ld(3, 4, 0).St(4, 8, 3).Addi(1, 1, 1).Jlt(1, 2, "loop").Hlt()
	cross := NewAsm()
	cross.Movi(1, 0).Movi(2, 500)
	cross.Label("loop").Addi(1, 1, 1).Nop().Nop().Jlt(1, 2, "loop").Hlt()
	return []runLoop{
		{"alu", fzCode, alu},
		{"ldst", fzCode, ldst},
		// Two words of prologue and two of the loop end page 5.
		{"crosspage", 6*phys.PageSize - 4*InstrSize, cross},
	}
}

// loopCore loads l on a bare machine (no monitor; one EPT granting rwx
// on the first 16 pages) and returns a function that runs it from the
// top on core 0.
func loopCore(tb testing.TB, l runLoop) func() (int, Trap) {
	tb.Helper()
	m := testMachine(tb)
	if err := m.Mem.WriteAt(l.base, l.prog.MustAssemble(l.base)); err != nil {
		tb.Fatal(err)
	}
	e := NewEPT()
	if err := e.Map(phys.MakeRegion(0, 16*phys.PageSize), PermRWX); err != nil {
		tb.Fatal(err)
	}
	c := m.Cores[0]
	c.InstallContext(&Context{Owner: 1, Filter: e, Entry: l.base, UsesEPT: true})
	c.Regs[4] = uint64(fzData)
	return func() (int, Trap) {
		c.PC = l.base
		c.ClearHalt()
		return c.Run(1 << 20)
	}
}

// TestRunAllocatesNothing pins the interpreter's hot path at zero heap
// allocations: fetch, decode, translate, load, store, retire — through
// the fast exit, through access, and alternating between the two.
func TestRunAllocatesNothing(t *testing.T) {
	for _, l := range runLoops() {
		t.Run(l.name, func(t *testing.T) {
			run := loopCore(t, l)
			allocs := testing.AllocsPerRun(20, func() {
				if n, trap := run(); n != loopInstrs || trap.Kind != TrapHalt {
					t.Fatalf("retired %d, trap %v", n, trap)
				}
			})
			if allocs != 0 {
				t.Fatalf("Core.Run allocates %.0f objects per %d instructions, want 0", allocs, loopInstrs)
			}
		})
	}
}

// BenchmarkRun measures the interpreter alone, in host nanoseconds per
// retired instruction, on each of the three loop shapes.
func BenchmarkRun(b *testing.B) {
	for _, l := range runLoops() {
		b.Run(l.name, func(b *testing.B) {
			run := loopCore(b, l)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, trap := run(); n != loopInstrs || trap.Kind != TrapHalt {
					b.Fatalf("retired %d, trap %v", n, trap)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*loopInstrs), "ns/instr")
		})
	}
}
