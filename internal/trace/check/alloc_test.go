package check

import (
	"testing"

	"github.com/tyche-sim/tyche/internal/trace"
)

// ev builds one event for the allocation pins.
func ev(k trace.Kind, dom, aux, node, addr, size uint64) trace.Event {
	return trace.Event{Core: trace.GlobalCore, Kind: k, Domain: dom, Aux: aux, Node: node, Addr: addr, Size: size}
}

// onCore is ev emitted by a core.
func onCore(core int32, k trace.Kind, dom, aux, node, addr, size uint64) trace.Event {
	e := ev(k, dom, aux, node, addr, size)
	e.Core = core
	return e
}

// revokeRound is a clean revocation on a two-core machine: core 0
// enters domain 2 and core 1 fast-switches to domain 3, then the op
// bracket, the revoke, and one shootdown round for both domains that
// targets both cores and is acked by both.
func revokeRound(tok uint64) []trace.Event {
	return []trace.Event{
		onCore(0, trace.KTransition, 2, 1, 0, 0, trace.TransCall),
		onCore(1, trace.KTransition, 3, 1, 0, 0, trace.TransFast),
		ev(trace.KOpBegin, 1, trace.OpRevoke, tok, 0, 0),
		ev(trace.KRevoke, 1, 0, 7, 0, 0),
		ev(trace.KShootdown, 2, 3, 0, 0x1000, 4096),
		ev(trace.KShootdownFor, 3, 0, 0, 0x1000, 4096),
		ev(trace.KShootdownAck, 0, 0, 0, 0x1000, 4096),
		ev(trace.KShootdownAck, 0, 1, 0, 0x1000, 4096),
		ev(trace.KOpEnd, 1, trace.OpRevoke, tok, 0, 0),
	}
}

// TestEngineStepAllocatesNothing: once warmed, the engine consumes every
// event kind without allocating — op, batch and drain brackets and
// their shootdown rounds included, since closed frames and rounds are
// recycled. The kill row is the exception the engine keeps: a killed
// domain's dead-set entry and a new domain's first scrub plan.
func TestEngineStepAllocatesNothing(t *testing.T) {
	var drain []trace.Event
	drain = append(drain, ev(trace.KDrainBegin, 0, 1, 20, 0, 0), ev(trace.KBatchBegin, 1, 2, 21, 0, 0))
	drain = append(drain, revokeRound(22)...)
	drain = append(drain, ev(trace.KBatchEnd, 1, 1, 21, 0, 0),
		ev(trace.KShootdown, 0, 3, 0, 0x2000, 4096),
		ev(trace.KShootdownAck, 0, 0, 0, 0x2000, 4096),
		ev(trace.KShootdownAck, 0, 1, 0, 0x2000, 4096),
		ev(trace.KDrainEnd, 0, 1, 20, 0, 0))
	batch := append([]trace.Event{ev(trace.KBatchBegin, 1, 1, 30, 0, 0)}, revokeRound(31)...)
	batch = append(batch, ev(trace.KBatchEnd, 1, 1, 30, 0, 0))
	kills := uint64(100)
	rows := []struct {
		name  string
		evs   func() []trace.Event
		allow float64
	}{
		{"boot", func() []trace.Event { return []trace.Event{ev(trace.KBoot, 0, 0, 0, 0, 2)} }, 0},
		{"hardware", func() []trace.Event {
			return []trace.Event{ev(trace.KTrap, 1, 0, 0, 0, 0), ev(trace.KIRQRaise, 0, 1, 2, 0, 0),
				ev(trace.KIRQLost, 0, 1, 2, 0, 0), ev(trace.KIRQSpurious, 0, 1, 2, 0, 0)}
		}, 0},
		{"irq", func() []trace.Event {
			return []trace.Event{ev(trace.KIRQRoute, 1, 1, 2, 0, 0), ev(trace.KIRQDrop, 0, 1, 2, 0, 0)}
		}, 0},
		{"vmcall+transition", func() []trace.Event {
			return []trace.Event{ev(trace.KVMCall, 1, 3, 0, 0, 0), ev(trace.KTransition, 1, 0, 0, 0, trace.TransCall),
				ev(trace.KTransition, 1, 0, 0, 0, trace.TransFast)}
		}, 0},
		{"share op", func() []trace.Event {
			return []trace.Event{ev(trace.KOpBegin, 1, trace.OpShare, 10, 0, 0), ev(trace.KShare, 1, 2, 8, 0x1000, 4096),
				ev(trace.KGrant, 1, 2, 9, 0x2000, 4096), ev(trace.KOpEnd, 1, trace.OpShare, 10, 0, 0)}
		}, 0},
		{"revoke op", func() []trace.Event { return revokeRound(11) }, 0},
		{"mediated", func() []trace.Event {
			return []trace.Event{ev(trace.KSeal, 2, 0, 0, 0, 0), ev(trace.KCreate, 3, 1, 0, 0, 0),
				ev(trace.KEPTMap, 1, 0, 7, 0x1000, 4096), ev(trace.KEPTClear, 1, 0, 0, 0, 0),
				ev(trace.KPMPWrite, 1, 0, 7, 0x1000, 4096), ev(trace.KAttest, 1, 0, 0, 0, 0),
				ev(trace.KForceKill, 5, 0, 0, 0, 0), ev(trace.KContain, 5, 0, 0, 0, 0)}
		}, 0},
		{"scrub", func() []trace.Event {
			return []trace.Event{ev(trace.KScrubPlan, 5, 0, 0, 0x3000, 4096), ev(trace.KScrub, 5, 0, 0, 0x3000, 4096)}
		}, 0},
		{"batch", func() []trace.Event { return batch }, 0},
		{"drain", func() []trace.Event { return drain }, 0},
		{"kill", func() []trace.Event {
			kills++
			return []trace.Event{ev(trace.KScrubPlan, kills, 0, 0, 0x3000, 4096),
				ev(trace.KScrub, kills, 0, 0, 0x3000, 4096), ev(trace.KKill, kills, 0, 0, 0, 0)}
		}, 2},
	}

	covered := make([]bool, fuzzKinds)
	e := newEngine()
	for _, r := range rows {
		for _, x := range r.evs() {
			covered[x.Kind] = true
			e.step(x)
		}
	}
	for k, ok := range covered {
		if !ok {
			t.Fatalf("no row steps %s", trace.Kind(k))
		}
	}
	for _, r := range rows {
		evs := r.evs()
		allocs := testing.AllocsPerRun(100, func() {
			if r.name == "kill" {
				evs = r.evs()
			}
			for _, x := range evs {
				e.step(x)
			}
		})
		if allocs > r.allow {
			t.Errorf("%s: engine.step allocates %.2f objects, want at most %.0f", r.name, allocs, r.allow)
		}
	}
	if len(e.violations) != 0 {
		t.Fatalf("the rows are not clean: %v", e.violations)
	}
}

// TestMergeAllocatesNothing: a steady-state merge — the checker copies
// a revocation's structural events into the buffer it lends as the
// report's audit stream — allocates nothing, and neither does consuming
// the events that fill it.
func TestMergeAllocatesNothing(t *testing.T) {
	ck := New()
	seq := uint64(1)
	ck.Event(trace.Event{Seq: seq, Core: trace.GlobalCore, Kind: trace.KBoot, Size: 2})
	round, structural := revokeRound(1), 0
	for _, e := range round {
		if e.Kind != trace.KTransition {
			structural++
		}
	}
	deliver := func() {
		for _, e := range round {
			seq++
			e.Seq = seq
			ck.Event(e)
		}
	}
	for i := 0; i < 4; i++ {
		deliver()
		ck.Merge()
	}
	allocs := testing.AllocsPerRun(100, func() {
		deliver()
		if rep := ck.Merge(); len(rep.Events) != structural || rep.Dropped != 0 {
			t.Fatalf("merge = %+v, want %d events", rep, structural)
		}
	})
	if allocs != 0 {
		t.Fatalf("a steady-state merge allocates %.2f objects, want 0", allocs)
	}
	if err := ck.Err(); err != nil {
		t.Fatal(err)
	}
}
