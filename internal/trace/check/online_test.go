package check

import (
	"slices"
	"strings"
	"testing"

	"github.com/tyche-sim/tyche/internal/trace"
)

// TestCheckerReportsEachViolationOnce: a violation rides in the report
// of the first merge after the event that caused it, End's report
// carries only what no merge did, a second End reports nothing, and the
// reports together hold every recorded violation exactly once, in
// order.
func TestCheckerReportsEachViolationOnce(t *testing.T) {
	tr := trace.New(2, 0, nil)
	ck := New()
	tr.Attach(ck)
	tr.Emit(trace.GlobalCore, trace.KBoot, 0, 0, 0, 0, 2)
	tr.Emit(trace.GlobalCore, trace.KKill, 7, 0, 0, 0, 0)
	if rep := ck.Merge(); len(rep.Events) != 2 || len(rep.NewViolations) != 0 {
		t.Fatalf("clean interval reported %+v", rep)
	}
	tr.Emit(0, trace.KTransition, 7, 0, 0, 0, trace.TransCall)
	tr.Emit(trace.GlobalCore, trace.KShare, 7, 0, 1, 0x1000, 4096)
	rep := ck.Merge()
	if len(rep.NewViolations) != 2 || len(rep.Events) != 1 {
		t.Fatalf("merge reported %d violations over %d events, want the transition and the share over 1",
			len(rep.NewViolations), len(rep.Events))
	}
	reported := slices.Clone(rep.NewViolations)
	if again := ck.Merge(); len(again.NewViolations) != 0 || len(again.Events) != 0 {
		t.Fatalf("an empty interval reported %+v", again)
	}
	tr.Emit(trace.GlobalCore, trace.KOpBegin, 0, trace.OpRevoke, 9, 0, 0) // never closed
	end := ck.End()
	if len(end.NewViolations) != 1 || len(end.Events) != 1 {
		t.Fatalf("End reported %d violations over %d events, want the open op over 1", len(end.NewViolations), len(end.Events))
	}
	reported = append(reported, end.NewViolations...)
	if again := ck.End(); len(again.NewViolations) != 0 || len(again.Events) != 0 {
		t.Fatalf("second End reported %+v", again)
	}
	if !slices.Equal(reported, ck.Violations()) {
		t.Fatalf("reported %v, recorded %v", reported, ck.Violations())
	}
}

// TestCheckerAuditBounded: a checker that is never merged keeps at most
// MaxAuditEvents structural events and counts the rest; its next merge
// reports them as Dropped, and the digest built from that report makes
// the remote verifier give up divergence replay rather than judge a
// truncated stream.
func TestCheckerAuditBounded(t *testing.T) {
	const extra = 5
	ck := New()
	seq := uint64(1)
	ck.Event(trace.Event{Seq: seq, Core: trace.GlobalCore, Kind: trace.KBoot, Size: 2})
	for i := 1; i < MaxAuditEvents+extra; i++ {
		seq++
		ck.Event(trace.Event{Seq: seq, Core: 0, Kind: trace.KVMCall, Domain: 1}) // not audited
		seq++
		ck.Event(trace.Event{Seq: seq, Core: trace.GlobalCore, Kind: trace.KSeal, Domain: 1})
	}
	if n := len(ck.audit); n != MaxAuditEvents {
		t.Fatalf("checker holds %d audit events, want %d", n, MaxAuditEvents)
	}
	rep := ck.Merge()
	if len(rep.Events) != MaxAuditEvents || rep.Dropped != extra {
		t.Fatalf("merge reported %d events, %d dropped; want %d, %d", len(rep.Events), rep.Dropped, MaxAuditEvents, extra)
	}
	if last := rep.Events[len(rep.Events)-1]; last.Seq != 2*MaxAuditEvents-1 {
		t.Fatalf("last audited event is #%d, want the cap's #%d", last.Seq, 2*MaxAuditEvents-1)
	}
	ver := NewRemoteVerifier("node")
	if err := ver.Consume(NewDigestBuilder("node").Build(rep)); err != nil {
		t.Fatal(err)
	}
	if flags := ver.Flags(); len(flags) != 1 || !strings.Contains(flags[0], "truncated 5 audit events (divergence replay disabled)") {
		t.Fatalf("verifier flags = %q, want divergence replay disabled", flags)
	}
	seq++
	ck.Event(trace.Event{Seq: seq, Core: trace.GlobalCore, Kind: trace.KSeal, Domain: 1})
	if rep := ck.Merge(); len(rep.Events) != 1 || rep.Dropped != 0 {
		t.Fatalf("the next interval reported %d events, %d dropped; want 1, 0", len(rep.Events), rep.Dropped)
	}
	if c := ck.Counts(); c.CapOps != MaxAuditEvents+extra || c.VMCalls != MaxAuditEvents+extra-1 {
		t.Fatalf("counts = %+v: the cap must not bound what the engine checks", c)
	}
}

// TestMergeDuringConcurrentEmit: four cores' delegation frames interleave
// through one tracer — one core kills a domain another keeps using —
// with a merge after every few events. Every structural event lands in
// exactly one report, in Seq order, and the reports' violations and
// End's verdict are Replay's over the tracer's events.
func TestMergeDuringConcurrentEmit(t *testing.T) {
	const emitters, rounds = 4, 300 // fewer structural events than MaxAuditEvents: one interval holds them all
	tr := trace.New(emitters, 8*rounds, nil)
	ck := New()
	tr.Attach(ck)
	tr.Emit(trace.GlobalCore, trace.KBoot, 0, 0, 0, 0, emitters)

	var audited []trace.Event
	var reported []Violation
	collect := func(rep MergeReport) {
		audited = append(audited, rep.Events...)
		reported = append(reported, rep.NewViolations...)
	}
	// Each core's frame is one step of four events; the cores' frames
	// overlap, each core's opening before the previous core's closes.
	for i := range rounds {
		for g := range emitters {
			core := int32(g)
			dom := uint64(10 + core)
			tok := uint64(core)<<32 | uint64(i+1)
			tr.Emit(core, trace.KVMCall, dom, 3, 0, 0, 0)
			tr.Emit(core, trace.KOpBegin, dom, trace.OpShare, tok, 0, 0)
			if g > 0 {
				prev := uint64(core-1)<<32 | uint64(i+1)
				tr.Emit(core-1, trace.KOpEnd, dom-1, trace.OpShare, prev, 0, 0)
			}
			tr.Emit(core, trace.KShare, dom, 2, tok, 0x1000, 4096)
			if g == emitters-1 {
				tr.Emit(core, trace.KOpEnd, dom, trace.OpShare, tok, 0, 0)
			}
			if core == 0 && i == rounds/2 {
				tr.Emit(trace.GlobalCore, trace.KKill, 10+emitters-1, 0, 0, 0, 0)
			}
			if (i*emitters+g)%3 == 0 {
				collect(ck.Merge())
			}
		}
	}
	collect(ck.End())

	evs := tr.Events()
	if tr.Dropped() != 0 {
		t.Fatalf("the rings overwrote %d events", tr.Dropped())
	}
	want := slices.DeleteFunc(slices.Clone(evs), func(e trace.Event) bool { return !structural(e.Kind) })
	if !slices.Equal(audited, want) {
		t.Fatalf("reports audited %d events, want the %d structural ones, each once, in Seq order", len(audited), len(want))
	}
	replay := Replay(evs)
	if !slices.Equal(reported, replay.Violations()) {
		t.Fatalf("reports carried %d violations, replay found %d:\n  online: %v\n  replay: %v",
			len(reported), len(replay.Violations()), reported, replay.Violations())
	}
	if (ck.Err() == nil) != (replay.Err() == nil) || ck.Counts() != replay.Counts() {
		t.Fatalf("online and replay disagree: %v / %v, counts %+v / %+v", ck.Err(), replay.Err(), ck.Counts(), replay.Counts())
	}
}
