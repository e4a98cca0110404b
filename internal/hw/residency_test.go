package hw

import (
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// TestShootdownTargetsResidentCores pins the targeting rule: a tagged
// switch keeps the core resident for the contexts it loaded before,
// InstallContext's flush leaves it resident for the new context alone,
// a round interrupts — and charges TLBFlush for — only the cores
// resident for its domains (nothing when none is), a whole-TLB round
// leaves a targeted core resident for its installed context alone, a
// request runs no round before the flush, and none of it allocates.
func TestShootdownTargetsResidentCores(t *testing.T) {
	m, err := NewMachine(Config{MemBytes: 1 << 20, NumCores: 4})
	if err != nil {
		t.Fatal(err)
	}
	tr := m.NewTracer(0)
	m.SetTracer(tr)
	a := &Context{Owner: 1, ASID: 1, Filter: AllowAll{}}
	b := &Context{Owner: 2, ASID: 2, Filter: AllowAll{}}
	c0, c1 := m.Cores[0], m.Cores[1]
	c0.InstallContext(a)
	c0.SwitchContextTagged(b)
	if !c0.residentFor(1) || !c0.residentFor(2) {
		t.Fatal("a tagged switch dropped the context it switched from")
	}
	c1.InstallContext(a)
	c1.InstallContext(b)
	if c1.residentFor(1) || !c1.residentFor(2) {
		t.Fatal("InstallContext did not leave the core resident for the new context alone")
	}
	r := phys.MakeRegion(0x4000, phys.PageSize)
	round := func(full bool, dom uint64) (cycles uint64, ev trace.Event) {
		before, n := m.Clock.Cycles(), len(tr.Events())
		if full {
			m.ShootdownAll(dom)
		} else {
			m.ShootdownRegion(r, dom)
		}
		if len(tr.Events()) != n {
			t.Fatal("recording a shootdown ran a round before the flush")
		}
		if rounds, coalesced := m.FlushShootdowns(); rounds != 1 || coalesced != 1 {
			t.Fatalf("flush = %d rounds, %d requests; want 1, 1", rounds, coalesced)
		}
		evs := tr.Events()[n:]
		if evs[0].Kind != trace.KShootdown {
			t.Fatalf("round opened with %v", evs[0])
		}
		if acks := len(evs) - 1; uint64(acks) != (m.Clock.Cycles()-before)/m.Cost.TLBFlush {
			t.Fatalf("%d acks for %d cycles", acks, m.Clock.Cycles()-before)
		}
		return m.Clock.Cycles() - before, evs[0]
	}
	if cyc, ev := round(false, 1); cyc != 1*m.Cost.TLBFlush || ev.Aux != 0b01 {
		t.Fatalf("round for domain 1: %d cycles, targets %#b; want 200 and core 0", cyc, ev.Aux)
	}
	if cyc, ev := round(false, 2); cyc != 2*m.Cost.TLBFlush || ev.Aux != 0b11 {
		t.Fatalf("round for domain 2: %d cycles, targets %#b; want 400 and cores 0, 1", cyc, ev.Aux)
	}
	if cyc, ev := round(false, 9); cyc != 0 || ev.Aux != 0 {
		t.Fatalf("round for a domain no core ran: %d cycles, targets %#b; want none", cyc, ev.Aux)
	}
	if cyc, ev := round(true, 1); cyc != m.Cost.TLBFlush || ev.Node != 1 {
		t.Fatalf("whole-TLB round for domain 1: %d cycles, %v", cyc, ev)
	}
	if c0.residentFor(1) || !c0.residentFor(2) {
		t.Fatal("a whole-TLB flush left the core resident for other than its installed context")
	}
	if n := testing.AllocsPerRun(100, func() {
		c0.InstallContext(a)
		c0.SwitchContextTagged(b)
		m.ShootdownRegion(r, 2)
		m.FlushShootdowns()
	}); n != 0 {
		t.Fatalf("switches and a round allocate %.1f objects, want 0", n)
	}
}

// TestFlushRunsOneRound: every request recorded since the last flush
// retires in one round — one KShootdown for the first domain, one
// KShootdownFor for each other, the adjacent regions merged, a full
// flush if any request asked for one — and a flush with nothing
// recorded runs none.
func TestFlushRunsOneRound(t *testing.T) {
	m, err := NewMachine(Config{MemBytes: 1 << 20, NumCores: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := m.NewTracer(0)
	m.SetTracer(tr)
	m.Cores[1].InstallContext(&Context{Owner: 3, ASID: 1, Filter: AllowAll{}})
	n := len(tr.Events())
	if rounds, coalesced := m.FlushShootdowns(); rounds != 0 || coalesced != 0 || len(tr.Events()) != n {
		t.Fatalf("empty flush = %d rounds, %d requests, %d events; want none", rounds, coalesced, len(tr.Events())-n)
	}
	m.ShootdownRegion(phys.MakeRegion(0x5000, phys.PageSize), 3)
	m.ShootdownRegion(phys.MakeRegion(0x4000, phys.PageSize), 2, 3)
	if rounds, coalesced := m.FlushShootdowns(); rounds != 1 || coalesced != 2 {
		t.Fatalf("flush = %d rounds, %d requests; want 1, 2", rounds, coalesced)
	}
	evs := tr.Events()[n:]
	if len(evs) != 3 || evs[0].Kind != trace.KShootdown || evs[1].Kind != trace.KShootdownFor || evs[2].Kind != trace.KShootdownAck {
		t.Fatalf("round events %v, want shootdown, shootdown-for, one ack", evs)
	}
	if sd := evs[0]; sd.Domain != 2 || evs[1].Domain != 3 || sd.Aux != 0b10 || sd.Addr != 0x4000 || sd.Size != 2*phys.PageSize {
		t.Fatalf("round %v for %d; want domains 2 and 3, core 1, [0x4000,+8192)", sd, evs[1].Domain)
	}
	m.ShootdownRegion(phys.MakeRegion(0x4000, phys.PageSize), 3)
	m.ShootdownAll(3)
	n = len(tr.Events())
	if rounds, _ := m.FlushShootdowns(); rounds != 1 || tr.Events()[n].Node != 1 {
		t.Fatalf("a flush with a full request ran %d rounds, %v; want one whole-TLB round", rounds, tr.Events()[n])
	}
}

// TestResidencyOverflows: a core that loads more contexts than its
// record names counts as resident for every domain.
func TestResidencyOverflows(t *testing.T) {
	m, err := NewMachine(Config{MemBytes: 1 << 20, NumCores: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := m.Cores[0]
	c.InstallContext(&Context{Owner: 1, Filter: AllowAll{}})
	for d := uint64(2); d <= residentSlots; d++ {
		c.SwitchContextTagged(&Context{Owner: d, Filter: AllowAll{}})
	}
	if c.residentFor(residentSlots + 1) {
		t.Fatal("a full record reports a domain it never loaded")
	}
	c.SwitchContextTagged(&Context{Owner: residentSlots + 1, Filter: AllowAll{}})
	if !c.residentFor(1000) {
		t.Fatal("an overflowed record must count the core resident for every domain")
	}
	c.InstallContext(&Context{Owner: 1, Filter: AllowAll{}})
	if c.residentFor(1000) || !c.residentFor(1) {
		t.Fatal("InstallContext did not reset an overflowed record")
	}
}
