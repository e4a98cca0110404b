package hw

import (
	"fmt"
	"slices"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
)

// Micro-benchmarks for the hot translation path: clock-hand TLB
// eviction (formerly a slice-shifting FIFO) and the core's MRUWays-way
// translation cache in front of it.

// BenchmarkNewMachine is a fleet node's machine coming up: 32 MiB and
// three cores. Memory gets its frames as software writes it, so the set-up
// cost is the per-page tables, not the configured size.
func BenchmarkNewMachine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewMachine(Config{MemBytes: 32 << 20, NumCores: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTLBInsertEvict hammers Insert with a working set four times
// the TLB capacity, so every fill evicts. The old FIFO shifted the
// whole queue on each of these; the clock hand just sweeps.
func BenchmarkTLBInsertEvict(b *testing.B) {
	tlb := NewTLB(DefaultTLBEntries)
	set := uint64(4 * DefaultTLBEntries)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tlb.Insert(1, uint64(i)%set, PermRW, 1)
	}
}

// BenchmarkTLBLookupHit measures the steady-state hit path.
func BenchmarkTLBLookupHit(b *testing.B) {
	tlb := NewTLB(DefaultTLBEntries)
	for pg := uint64(0); pg < DefaultTLBEntries; pg++ {
		tlb.Insert(1, pg, PermRW, 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, hit := tlb.Lookup(1, uint64(i)%DefaultTLBEntries, 1); !hit {
			b.Fatal("expected hit")
		}
	}
}

// BenchmarkCoreAccessMRU runs a tight load loop against one page, the
// case the core's MRU translation cache is built for: after the
// first fill every access short-circuits before the TLB's mutex.
func BenchmarkCoreAccessMRU(b *testing.B) {
	m, err := NewMachine(Config{MemBytes: 1 << 20, NumCores: 1})
	if err != nil {
		b.Fatal(err)
	}
	base := phys.Addr(0x1000)
	a := NewAsm()
	a.Movi(1, 0x8000)
	a.Label("loop")
	a.Ld(2, 1, 0)
	a.Jmp("loop")
	code := a.MustAssemble(base)
	if err := m.Mem.WriteAt(base, code); err != nil {
		b.Fatal(err)
	}
	core := m.Cores[0]
	core.InstallContext(&Context{Owner: 1, Filter: AllowAll{}, Entry: base})
	core.PC = base
	b.ReportAllocs()
	b.ResetTimer()
	if n, trap := core.Run(b.N); n != b.N || trap.Kind != TrapNone {
		b.Fatalf("ran %d/%d, trap %v", n, b.N, trap)
	}
}

// eptLookupRuns are the table sizes an EPT lookup is measured and
// pinned at: the sizes the monitor publishes (a domain's flattened view
// is a handful of runs) and well past them.
var eptLookupRuns = []int{1, 8, 64}

// eptRunPages is the size of each run of eptWithRuns' table.
const eptRunPages = 4

// eptWithRuns publishes a table of n runs whose alternating permissions
// keep neighbours from merging.
func eptWithRuns(tb testing.TB, n int) *EPT {
	runs := make([]EPTMapping, n)
	for i := range runs {
		runs[i] = EPTMapping{
			Region: phys.MakeRegion(phys.Addr(i*eptRunPages)<<phys.PageShift, eptRunPages*phys.PageSize),
			Perm:   [2]Perm{PermRW, PermRX}[i%2],
		}
	}
	e := NewEPT()
	if _, err := e.Replace(phys.AllMemory, runs, nil); err != nil {
		tb.Fatal(err)
	}
	if got := len(e.Mappings()); got != n {
		tb.Fatalf("table has %d runs, want %d", got, n)
	}
	return e
}

// BenchmarkEPTLookup measures what a TLB miss pays in the EPT: one
// pointer load and a binary search, no lock and no allocation.
func BenchmarkEPTLookup(b *testing.B) {
	for _, n := range eptLookupRuns {
		b.Run(fmt.Sprintf("runs=%d", n), func(b *testing.B) {
			e, pages := eptWithRuns(b, n), uint64(n*eptRunPages)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if e.Lookup(phys.Addr(uint64(i)*7%pages<<phys.PageShift)) == PermNone {
					b.Fatal("mapped page denied")
				}
			}
		})
	}
}

// TestEPTLookupAllocatesNothing pins the TLB-miss path at zero
// allocations at every measured table size.
func TestEPTLookupAllocatesNothing(t *testing.T) {
	for _, n := range eptLookupRuns {
		e, pages := eptWithRuns(t, n), uint64(n*eptRunPages)
		i := uint64(0)
		allocs := testing.AllocsPerRun(100, func() {
			if e.Lookup(phys.Addr(i*7%pages<<phys.PageShift)) == PermNone {
				t.Fatal("mapped page denied")
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("runs=%d: Lookup allocates %.1f times per call, want 0", n, allocs)
		}
	}
}

// TestEPTReplaceUnchangedAllocatesNothing: a resync whose view did not
// change sweeps the table and allocates nothing — no copy, no extents.
// Once warmed, a changed one allocates nothing either: it splices into
// the table's spare buffer and swaps the two, and its extents reuse the
// caller's buffer. So does a Map.
func TestEPTReplaceUnchangedAllocatesNothing(t *testing.T) {
	e := eptWithRuns(t, 16)
	runs := e.Mappings()
	buf := make([]EPTMapping, 0, 16)
	if n := testing.AllocsPerRun(100, func() {
		if ext, err := e.Replace(phys.AllMemory, runs, buf); err != nil || len(ext) != 0 {
			t.Fatalf("unchanged Replace reported %v, err %v", ext, err)
		}
	}); n != 0 {
		t.Errorf("Replace of an unchanged table allocates %.1f times, want 0", n)
	}
	flip := slices.Clone(runs)
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		flip[i%len(flip)].Perm ^= PermX
		i++
		if ext, err := e.Replace(phys.AllMemory, flip, buf); err != nil || len(ext) != 1 {
			t.Fatalf("one-run Replace reported %v, err %v", ext, err)
		}
	}); n != 0 {
		t.Errorf("Replace of a changed table allocates %.1f times, want 0", n)
	}
	page := phys.MakeRegion(phys.Addr(3<<phys.PageShift), phys.PageSize)
	if n := testing.AllocsPerRun(100, func() {
		i++
		if err := e.Map(page, Perm(i%2)*PermX|PermR); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Map allocates %.1f times, want 0", n)
	}
}

// TestMachineRunAll runs all four cores, one after the other: every core
// executes its own sum loop, and per-core traps, registers, and the
// aggregated machine clock must all come out right.
func TestMachineRunAll(t *testing.T) {
	m, err := NewMachine(Config{MemBytes: 1 << 20, NumCores: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range m.Cores {
		base := phys.Addr(0x1000 + uint64(i)*phys.PageSize)
		n := uint64(10 * (i + 1)) // core i sums 0..10(i+1)-1
		a := NewAsm()
		a.Movi(1, 0)
		a.Movi(2, 0)
		a.Movi(3, uint32(n))
		a.Label("loop")
		a.Add(1, 1, 2)
		a.Addi(2, 2, 1)
		a.Jlt(2, 3, "loop")
		a.Hlt()
		code := a.MustAssemble(base)
		if err := m.Mem.WriteAt(base, code); err != nil {
			t.Fatal(err)
		}
		c.InstallContext(&Context{Owner: uint64(i + 1), Filter: AllowAll{}, Entry: base})
		c.PC = base
	}
	traps := make([]Trap, len(m.Cores))
	for i, c := range m.Cores {
		_, traps[i] = c.Run(10000)
	}
	for i, trap := range traps {
		if trap.Kind != TrapHalt {
			t.Fatalf("core %d trap = %v, want halt", i, trap)
		}
		n := uint64(10 * (i + 1))
		want := n * (n - 1) / 2
		if got := m.Cores[i].Regs[1]; got != want {
			t.Fatalf("core %d sum = %d, want %d", i, got, want)
		}
	}
	// The machine clock aggregates per-core shards; it must reflect all
	// four cores' work and reset back to zero everywhere.
	var perCore uint64
	for _, c := range m.Cores {
		perCore += c.Cycles()
	}
	if total := m.Clock.Cycles(); total == 0 || total < perCore {
		t.Fatalf("clock total = %d, per-core sum = %d", total, perCore)
	}
	m.Clock.Reset()
	if m.Clock.Cycles() != 0 {
		t.Fatalf("clock after reset = %d", m.Clock.Cycles())
	}
	for i, c := range m.Cores {
		if c.Cycles() != 0 {
			t.Fatalf("core %d shard after reset = %d", i, c.Cycles())
		}
	}
}

// TestTLBClockHandSecondChance pins down the second-chance property the
// plain eviction test cannot see: a referenced entry survives one sweep
// of the hand, an unreferenced one does not.
func TestTLBClockHandSecondChance(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(0, 1, PermR, 0)
	tlb.Insert(0, 2, PermR, 0)
	// Reference page 2 only; page 1's ref bit decays after the hand
	// passes both once.
	if _, hit := tlb.Lookup(0, 2, 0); !hit {
		t.Fatal("page 2 should hit")
	}
	tlb.Insert(0, 3, PermR, 0) // hand clears refs, evicts first unreferenced
	if _, hit := tlb.Lookup(0, 1, 0); hit {
		t.Fatal("unreferenced page 1 should be the victim")
	}
	if _, hit := tlb.Lookup(0, 2, 0); !hit {
		t.Fatal("referenced page 2 should survive the sweep")
	}
	if _, hit := tlb.Lookup(0, 3, 0); !hit {
		t.Fatal("page 3 was just inserted")
	}
}

// TestCoreMRUCoherence: the MRU translation cache must not outlive a TLB
// flush (shootdown) — after a flush the next access walks again.
func TestCoreMRUCoherence(t *testing.T) {
	m, err := NewMachine(Config{MemBytes: 1 << 20, NumCores: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEPT()
	if err := e.Map(phys.MakeRegion(0x1000, phys.PageSize), PermRX); err != nil {
		t.Fatal(err)
	}
	data := phys.MakeRegion(0x8000, phys.PageSize)
	if err := e.Map(data, PermRW); err != nil {
		t.Fatal(err)
	}
	base := phys.Addr(0x1000)
	a := NewAsm()
	a.Movi(1, 0x8000)
	a.Ld(2, 1, 0)
	a.Ld(2, 1, 8) // same page: served by the MRU entry
	a.Hlt()
	code := a.MustAssemble(base)
	if err := m.Mem.WriteAt(base, code); err != nil {
		t.Fatal(err)
	}
	core := m.Cores[0]
	core.InstallContext(&Context{Owner: 1, Filter: e, Entry: base, UsesEPT: true})
	core.PC = base
	if _, trap := core.Run(100); trap.Kind != TrapHalt {
		t.Fatalf("first run trap = %v", trap)
	}
	// Revoke the data page with a proper shootdown. The MRU entry keys
	// on the flush count, so it must miss and the walk must fault.
	if err := e.Unmap(data); err != nil {
		t.Fatal(err)
	}
	core.TLBUnit().Flush()
	core.ClearHalt()
	core.PC = base
	_, trap := core.Run(100)
	if trap.Kind != TrapFault || trap.Addr != 0x8000 {
		t.Fatalf("post-shootdown trap = %v, want fault at 0x8000", trap)
	}
}
