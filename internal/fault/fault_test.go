package fault

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/tpm"
)

func TestScheduleRoundTrip(t *testing.T) {
	cases := []struct {
		spec string
		want Fault
	}{
		{"mc1@128", Fault{Kind: MachineCheck, Core: 1, After: 128}},
		{"mc0@0", Fault{Kind: MachineCheck}},
		{"stall2@64", Fault{Kind: CoreStall, Core: 2, After: 64}},
		{"dropirq0@2x3", Fault{Kind: DropIRQ, Device: 0, After: 2, Count: 3}},
		{"spurious1.7@1", Fault{Kind: SpuriousIRQ, Device: 1, Vector: 7, After: 1}},
		{"quote@0x2", Fault{Kind: QuoteFail, After: 0, Count: 2}},
		{"drop@1", Fault{Kind: LinkDrop, After: 1}},
		{"dup@0x2", Fault{Kind: LinkDup, After: 0, Count: 2}},
		{"reorder@3", Fault{Kind: LinkReorder, After: 3}},
	}
	for _, tc := range cases {
		got, err := parseFault(tc.spec)
		if err != nil {
			t.Fatalf("parseFault(%q): %v", tc.spec, err)
		}
		if got != tc.want {
			t.Fatalf("parseFault(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
		if back := FormatFault(got); back != tc.spec {
			t.Fatalf("FormatFault(%+v) = %q, want %q", got, back, tc.spec)
		}
	}
	sched := "mc1@128,dropirq0@2x3,quote@0x2"
	fs, err := ParseSchedule(sched)
	if err != nil {
		t.Fatal(err)
	}
	if FormatSchedule(fs) != sched {
		t.Fatalf("schedule round trip: %q != %q", FormatSchedule(fs), sched)
	}
	if fs, err := ParseSchedule("  "); err != nil || fs != nil {
		t.Fatalf("empty schedule: %v, %v", fs, err)
	}
	for _, bad := range []string{"mc1", "bogus3@1", "mc@1", "spurious1@0", "quote7@1", "mc1@1x0", "mc1@-3", "drop1@0", "reorder.2@0"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Fatalf("ParseSchedule(%q): expected error", bad)
		}
	}
}

func TestFromSeedDeterministic(t *testing.T) {
	a := FromSeed(42, 4, 2, 16)
	b := FromSeed(42, 4, 2, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must derive identical schedules")
	}
	c := FromSeed(43, 4, 2, 16)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should derive different schedules")
	}
	for _, f := range a {
		if f.Kind == MachineCheck || f.Kind == CoreStall {
			if f.Core == 0 {
				t.Fatalf("FromSeed targeted core 0: %+v", f)
			}
			if int(f.Core) >= 4 {
				t.Fatalf("FromSeed core out of range: %+v", f)
			}
		}
		if (f.Kind == DropIRQ || f.Kind == SpuriousIRQ) && int(f.Device) >= 2 {
			t.Fatalf("FromSeed device out of range: %+v", f)
		}
	}
	// No devices: only core faults can be derived.
	for _, f := range FromSeed(7, 2, 0, 8) {
		if f.Kind != MachineCheck && f.Kind != CoreStall {
			t.Fatalf("device fault derived on device-less machine: %+v", f)
		}
	}
	// Link schedules are deterministic too, and purely link-kinded.
	la := FromSeedLinks(9, 6)
	if !reflect.DeepEqual(la, FromSeedLinks(9, 6)) {
		t.Fatal("same seed must derive identical link schedules")
	}
	for _, f := range la {
		if !f.Kind.Link() {
			t.Fatalf("FromSeedLinks derived a non-link fault: %+v", f)
		}
	}
}

// runLoop loads a store loop on core and runs it under the injector,
// returning the stopping trap and retired-instruction count.
func runLoop(t *testing.T, in *Injector) (hw.Trap, uint64, []Firing) {
	t.Helper()
	m, err := hw.NewMachine(hw.Config{MemBytes: 1 << 20, NumCores: 1})
	if err != nil {
		t.Fatal(err)
	}
	in.Arm(m, nil)
	a := hw.NewAsm()
	a.Movi(1, 0x8000) // store base
	a.Movi(2, 0)      // i
	a.Movi(3, 200)
	a.Label("loop")
	a.St(1, 0, 2)
	a.Addi(2, 2, 1)
	a.Jlt(2, 3, "loop")
	a.Hlt()
	code, err := a.Assemble(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.WriteAt(0x1000, code); err != nil {
		t.Fatal(err)
	}
	core := m.Cores[0]
	core.InstallContext(&hw.Context{Owner: 1, Filter: hw.AllowAll{}, Entry: 0x1000})
	core.PC = 0x1000
	_, trap := core.Run(10_000)
	return trap, core.InstrCount(), in.Fired()
}

func TestMachineCheckFiresAtExactEvent(t *testing.T) {
	f := Fault{Kind: MachineCheck, Core: 0, After: 57}
	trap, instrs, fired := runLoop(t, NewInjector(f))
	if trap.Kind != hw.TrapMachineCheck {
		t.Fatalf("trap = %v, want machine-check", trap)
	}
	if len(fired) != 1 || fired[0].Seq != 58 {
		t.Fatalf("fired = %v, want one firing at seq 58", fired)
	}
	// Replay: a fresh machine and injector reproduce the identical
	// trap, firing record, and retired-instruction count.
	trap2, instrs2, fired2 := runLoop(t, NewInjector(f))
	if trap2 != trap || instrs2 != instrs || !reflect.DeepEqual(fired2, fired) {
		t.Fatalf("replay diverged: %v/%d/%v vs %v/%d/%v",
			trap, instrs, fired, trap2, instrs2, fired2)
	}
}

func TestMachineCheckAbortsDoNotStall(t *testing.T) {
	in := NewInjector(Fault{Kind: MachineCheck, Core: 0, After: 10})
	trap, _, _ := runLoop(t, in)
	if trap.Kind != hw.TrapMachineCheck {
		t.Fatalf("trap = %v", trap)
	}
	if !in.Exhausted() {
		t.Fatal("single-shot fault should be exhausted")
	}
}

func TestCoreStallPoisonsUntilCleared(t *testing.T) {
	m, err := hw.NewMachine(hw.Config{MemBytes: 1 << 20, NumCores: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(Fault{Kind: CoreStall, Core: 1, After: 3})
	in.Arm(m, nil)
	a := hw.NewAsm()
	a.Label("loop")
	a.Nop()
	a.Jmp("loop")
	code, err := a.Assemble(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.WriteAt(0x1000, code); err != nil {
		t.Fatal(err)
	}
	victim := m.Cores[1]
	victim.InstallContext(&hw.Context{Owner: 1, Filter: hw.AllowAll{}, Entry: 0x1000})
	victim.PC = 0x1000
	if _, trap := victim.Run(100); trap.Kind != hw.TrapMachineCheck {
		t.Fatalf("trap = %v, want machine-check", trap)
	}
	// Every further step raises the machine check without executing.
	before := victim.InstrCount()
	if _, trap := victim.Run(1); trap.Kind != hw.TrapMachineCheck {
		t.Fatalf("stalled step trap = %v", trap)
	}
	if victim.InstrCount() != before {
		t.Fatal("stalled core retired an instruction")
	}
	// The sibling core is untouched.
	other := m.Cores[0]
	other.InstallContext(&hw.Context{Owner: 2, Filter: hw.AllowAll{}, Entry: 0x1000})
	other.PC = 0x1000
	if _, trap := other.Run(10); trap.Kind != hw.TrapNone {
		t.Fatalf("sibling trap = %v", trap)
	}
	victim.ClearStall()
	if n, trap := victim.Run(1); n != 1 || trap.Kind != hw.TrapNone {
		t.Fatalf("post-clear step = %v", trap)
	}
}

func TestDropAndSpuriousIRQs(t *testing.T) {
	m, err := hw.NewMachine(hw.Config{MemBytes: 1 << 20, NumCores: 1,
		Devices: []hw.DeviceConfig{{Name: "nic0", Class: hw.DevNIC}}})
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(
		Fault{Kind: DropIRQ, Device: 0, After: 1, Count: 2},
		Fault{Kind: SpuriousIRQ, Device: 0, Vector: 9, After: 2},
	)
	in.Arm(m, nil)
	for i := 0; i < 5; i++ {
		m.RaiseIRQ(0, uint32(i))
	}
	// The 2nd and 3rd raises (after=1, count=2) were dropped.
	if got := m.PendingIRQs(); got != 3 {
		t.Fatalf("pending = %d, want 3", got)
	}
	var got []hw.IRQ
	for {
		irq, ok := m.TakeIRQ()
		if !ok {
			break
		}
		got = append(got, irq)
	}
	want := []hw.IRQ{
		{Device: 0, Vector: 0},
		{Device: 0, Vector: 3}, // vectors 1 and 2 were dropped at raise
		{Device: 0, Vector: 9}, // spurious, injected on the 3rd poll
		{Device: 0, Vector: 4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered = %v, want %v", got, want)
	}
	if !in.Exhausted() {
		t.Fatalf("schedule not exhausted: fired %v", in.Fired())
	}
}

func TestQuoteFailureIsTransient(t *testing.T) {
	rot, err := tpm.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInjector(Fault{Kind: QuoteFail, After: 1, Count: 2})
	rot.SetQuoteHook(in.quoteHook())
	quote := func() error {
		_, err := rot.MakeQuote([]byte("nonce"), []int{0}, nil)
		return err
	}
	if err := quote(); err != nil {
		t.Fatalf("quote 1 should pass: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := quote(); !errors.Is(err, ErrQuote) {
			t.Fatalf("quote %d: err = %v, want injected failure", i+2, err)
		}
	}
	if err := quote(); err != nil {
		t.Fatalf("recovery quote failed: %v", err)
	}
	rot.SetQuoteHook(nil)
	if err := quote(); err != nil {
		t.Fatalf("unhooked quote failed: %v", err)
	}
}

// FromSeedLinks derives a schedule of n link faults deterministically
// from seed, for arming a dist.Wire. Offsets stay small so even a
// short migration exchange (a handful of frames) hits the schedule.
func FromSeedLinks(seed int64, n int) []Fault {
	rng := rand.New(rand.NewSource(seed))
	kinds := []Kind{LinkDrop, LinkDup, LinkReorder}
	out := make([]Fault, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Fault{
			Kind:  kinds[rng.Intn(len(kinds))],
			After: uint64(rng.Intn(4)),
		})
	}
	return out
}
