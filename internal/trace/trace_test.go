package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestEmitRecordsAndOrders(t *testing.T) {
	var cyc uint64
	tr := New(2, 16, func() uint64 { cyc += 10; return cyc })
	tr.Emit(GlobalCore, KBoot, 0, 0, 0, 0, 2)
	tr.Emit(0, KTrap, 1, 2, 3, 4, 0)
	tr.Emit(1, KVMCall, 2, 7, 0, 0, 0)
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if evs[0].Kind != KBoot || evs[1].Kind != KTrap || evs[2].Kind != KVMCall {
		t.Fatalf("wrong order: %v", evs)
	}
	if evs[0].Cycle == 0 || evs[1].Cycle <= evs[0].Cycle {
		t.Fatalf("cycle stamps not monotone: %v", evs)
	}
	if tr.Len() != 3 || tr.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
}

func TestRingWrapDropsOldest(t *testing.T) {
	tr := New(1, 4, nil)
	for i := 0; i < 10; i++ {
		tr.Emit(0, KVMCall, uint64(i), 0, 0, 0, 0)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	// The survivors are the newest four, still in seq order.
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Domain != want {
			t.Fatalf("slot %d holds domain %d, want %d", i, ev.Domain, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped=%d, want 6", tr.Dropped())
	}
}

// TestRingGrowthAllocations: a ring grows by doubling up to ringEager
// events and then takes its whole capacity in one step, so filling a
// default ring and wrapping it allocates at most 10 times (9 doublings
// to 256, then one), and what it keeps is what it always kept.
func TestRingGrowthAllocations(t *testing.T) {
	const emits = 5000
	var tr *Tracer
	setup := testing.AllocsPerRun(1, func() { tr = New(1, 0, nil) })
	allocs := testing.AllocsPerRun(1, func() {
		tr = New(1, 0, nil)
		for i := 0; i < emits; i++ {
			tr.Emit(0, KVMCall, uint64(i), 0, 0, 0, 0)
		}
	}) - setup
	if allocs > 10 {
		t.Errorf("%d emits into one ring allocate %v times, want at most 10", emits, allocs)
	}
	evs := tr.Events()
	if len(evs) != DefaultRingEntries || tr.Dropped() != emits-DefaultRingEntries {
		t.Fatalf("ring kept %d events and dropped %d, want %d and %d", len(evs), tr.Dropped(), DefaultRingEntries, emits-DefaultRingEntries)
	}
	for i, ev := range evs {
		if want := uint64(emits - DefaultRingEntries + i); ev.Domain != want || ev.Seq != want+1 {
			t.Fatalf("slot %d holds domain %d seq %d, want %d and %d", i, ev.Domain, ev.Seq, want, want+1)
		}
	}
	// A ring that sees few events stays small.
	small := New(1, 0, nil)
	for i := 0; i < 3; i++ {
		small.Emit(0, KVMCall, 0, 0, 0, 0, 0)
	}
	if c := cap(small.rings[1].slots); c >= ringEager {
		t.Errorf("a ring holding 3 events has capacity %d", c)
	}
}

// pattern fills an event's payload from (emitter, index), so a reader
// can tell an emitted event from a torn or invented one.
func pattern(g, i uint64) (domain, aux, node, addr, size uint64) {
	return g, i, g<<32 | i, ^(g<<32 | i), (g + 1) * (i + 1)
}

// TestEventsDuringEmit: four interleaved emitters wrap one 64-slot ring
// many times, with a snapshot of Events() after every few emits. Every
// snapshot must hold whole, emitted events; since all of them land in
// the one ring, a snapshot is also a run of consecutive sequence numbers
// with each emitter's events in order.
func TestEventsDuringEmit(t *testing.T) {
	const emitters, per, slots = 4, 2000, 64
	tr := New(0, slots, nil)
	check := func(evs []Event) {
		var next [emitters]uint64
		for i, ev := range evs {
			if i > 0 && ev.Seq != evs[i-1].Seq+1 {
				t.Errorf("seq %d follows %d in one ring's snapshot", ev.Seq, evs[i-1].Seq)
				return
			}
			d, a, n, ad, sz := pattern(ev.Domain, ev.Aux)
			want := Event{Seq: ev.Seq, Core: GlobalCore, Kind: KShare, Domain: d, Aux: a, Node: n, Addr: ad, Size: sz}
			if ev != want || ev.Domain >= emitters || ev.Aux >= per {
				t.Errorf("event %v was never emitted", ev)
				return
			}
			if ev.Aux < next[ev.Domain] {
				t.Errorf("emitter %d: index %d after %d", ev.Domain, ev.Aux, next[ev.Domain]-1)
				return
			}
			next[ev.Domain] = ev.Aux + 1
		}
	}
	for i := uint64(0); i < per && !t.Failed(); i++ {
		for g := uint64(0); g < emitters; g++ {
			d, a, n, ad, sz := pattern(g, i)
			tr.Emit(GlobalCore, KShare, d, a, n, ad, sz)
		}
		if i%7 == 0 {
			check(tr.Events())
		}
	}
	evs := tr.Events()
	check(evs)
	if len(evs) != slots || evs[slots-1].Seq != emitters*per {
		t.Fatalf("final snapshot: %d events ending at seq %d, want %d ending at %d",
			len(evs), evs[len(evs)-1].Seq, slots, emitters*per)
	}
	if got := tr.Dropped(); got != emitters*per-slots {
		t.Fatalf("dropped = %d, want %d", got, emitters*per-slots)
	}
}

// countSink is the cheapest Sink: what Emit costs with one attached is
// Emit's own cost.
type countSink struct{ n uint64 }

func (c *countSink) Event(Event) { c.n++ }

// TestEmitAllocatesNothing pins the emit path into a grown ring at zero
// heap objects with a cycle source and a sink attached.
func TestEmitAllocatesNothing(t *testing.T) {
	var cyc uint64
	tr := New(3, 64, func() uint64 { cyc += 7; return cyc })
	tr.Attach(&countSink{})
	for i := 0; i < 64; i++ { // grow both rings to their capacity
		tr.Emit(1, KSeal, 0, 0, 0, 0, 0)
		tr.Emit(GlobalCore, KSeal, 0, 0, 0, 0, 0)
	}
	if got := testing.AllocsPerRun(1000, func() {
		tr.Emit(1, KTransition, 2, 1, 0, 0, TransCall)
		tr.Emit(GlobalCore, KShare, 2, 3, 9, 0x4000, 0x1000)
	}); got != 0 {
		t.Errorf("%v allocations per two emits, want 0", got)
	}
}

func BenchmarkTracerEmit(b *testing.B) {
	var cyc uint64
	tr := New(3, 0, func() uint64 { cyc += 7; return cyc })
	tr.Attach(&countSink{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(1, KTransition, 2, 1, 0, 0, TransCall)
	}
}

type collectSink struct{ evs []Event }

func (s *collectSink) Event(ev Event) { s.evs = append(s.evs, ev) }

func TestSinkSeesTotalOrder(t *testing.T) {
	tr := New(4, 0, nil)
	sink := &collectSink{}
	tr.Attach(sink)
	for i := 0; i < 500; i++ {
		for g := 0; g < 4; g++ {
			tr.Emit(int32(g), KVMCall, uint64(g), 0, 0, 0, 0)
		}
	}
	if len(sink.evs) != 2000 {
		t.Fatalf("sink saw %d events, want 2000", len(sink.evs))
	}
	// Delivery order and sequence numbers must agree exactly.
	for i, ev := range sink.evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("delivery %d carries seq %d", i, ev.Seq)
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := New(2, 0, nil)
	tr.Emit(GlobalCore, KBoot, 0, 0, 0, 0, 2)
	tr.Emit(GlobalCore, KOpBegin, 3, OpRevoke, 0, 0, 0)
	tr.Emit(GlobalCore, KShootdown, 0, 0, 0, 0x1000, 4096)
	tr.Emit(GlobalCore, KOpEnd, 3, OpRevoke, 0, 0, 0)
	tr.Emit(1, KTrap, 3, 2, 0, 0, 0)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var phases []string
	for _, e := range out {
		phases = append(phases, fmt.Sprint(e["ph"]))
	}
	joined := strings.Join(phases, "")
	if !strings.Contains(joined, "B") || !strings.Contains(joined, "E") {
		t.Fatalf("missing op duration slices in %v", phases)
	}
}
