package check

import (
	"slices"
	"strings"
	"testing"

	"github.com/tyche-sim/tyche/internal/trace"
)

// fuzzRecordSize is the fixed-width wire format FuzzTraceReplay decodes:
// one event per 8 bytes — kind, core, domain, aux, node, addr-page,
// size-pages (a KBoot's core count, a KTransition's kind), seq-jitter.
const fuzzRecordSize = 8

// fuzzKinds is how many event kinds the decoder draws from: every kind
// there is (TestFuzzDecoderCoversEveryKind fails when one is added).
const fuzzKinds = uint64(trace.KShootdownFor) + 1

// decodeFuzzEvents turns raw fuzz input into an adversarial event
// stream: arbitrary kinds on arbitrary cores, acks for shootdowns that
// were never opened, unbalanced op/batch brackets, scrub plans with no
// scrubs, transitions by killed domains — whatever the bytes say. Seqs
// are unique but may be locally swapped (byte 7) so replays also see
// out-of-order assignment.
func decodeFuzzEvents(data []byte) []trace.Event {
	n := len(data) / fuzzRecordSize
	if n > 4096 {
		n = 4096
	}
	evs := make([]trace.Event, 0, n)
	for i := 0; i < n; i++ {
		b := data[i*fuzzRecordSize : (i+1)*fuzzRecordSize]
		evs = append(evs, trace.Event{
			Seq:    uint64(i + 1),
			Core:   int32(b[1]%6) - 1, // -1 (global) .. 4
			Kind:   trace.Kind(uint64(b[0]) % fuzzKinds),
			Domain: uint64(b[2] % 8),
			Aux:    uint64(b[3] % 8),
			Node:   uint64(b[4] % 8),
			Addr:   uint64(b[5]) << 12,
			Size:   uint64(b[6]%5) << 12,
		})
		switch evs[i].Kind {
		case trace.KBoot:
			// A core count the acks (Aux < 8) can complete.
			evs[i].Size = uint64(b[6] % 5)
		case trace.KTransition:
			// A transition kind, fast switches included.
			evs[i].Size = uint64(b[6] % 5)
		}
		// Swap adjacent seqs so the stream is delivered out of order.
		if b[7]&1 == 1 && i > 0 {
			j := len(evs) - 1
			evs[j].Seq, evs[j-1].Seq = evs[j-1].Seq, evs[j].Seq
		}
	}
	return evs
}

// fuzzMergeEvery is how often FuzzTraceReplay's online pass merges.
const fuzzMergeEvery = 7

// fuzzSeed assembles one record.
func fuzzSeed(recs ...[fuzzRecordSize]byte) []byte {
	var out []byte
	for _, r := range recs {
		out = append(out, r[:]...)
	}
	return out
}

// FuzzTraceReplay feeds adversarial streams through the checker: it
// may not panic and must be deterministic across two runs of the same
// input; fed online with a merge every few events it must report every
// violation and every structural event exactly once, in order, and
// reach Replay's verdict; and the engine must agree with its allocating
// twin on every violation and on the counts.
func FuzzTraceReplay(f *testing.F) {
	kb := byte(trace.KBoot)
	// Clean op-bracketed revoke with a full shootdown round (2 cores).
	f.Add(fuzzSeed(
		[8]byte{kb, 0, 0, 0, 0, 0, 2, 0},
		[8]byte{byte(trace.KOpBegin), 0, 1, byte(trace.OpRevoke), 1, 0, 0, 0},
		[8]byte{byte(trace.KShootdown), 0, 0, 3, 0, 1, 1, 0},
		[8]byte{byte(trace.KShootdownAck), 0, 0, 0, 0, 1, 1, 0},
		[8]byte{byte(trace.KShootdownAck), 0, 0, 1, 0, 1, 1, 0},
		[8]byte{byte(trace.KOpEnd), 0, 1, byte(trace.OpRevoke), 1, 0, 0, 0},
	))
	// Ack for a shootdown that was never opened.
	f.Add(fuzzSeed(
		[8]byte{kb, 0, 0, 0, 0, 0, 2, 0},
		[8]byte{byte(trace.KShootdownAck), 0, 0, 0, 0, 1, 1, 0},
	))
	// Kill with a scrub plan and no scrub, then a dead transition.
	f.Add(fuzzSeed(
		[8]byte{kb, 0, 0, 0, 0, 0, 1, 0},
		[8]byte{byte(trace.KOpBegin), 0, 5, byte(trace.OpKill), 2, 0, 0, 0},
		[8]byte{byte(trace.KScrubPlan), 0, 5, 0, 0, 4, 2, 0},
		[8]byte{byte(trace.KKill), 0, 5, 0, 0, 0, 0, 0},
		[8]byte{byte(trace.KOpEnd), 0, 5, byte(trace.OpKill), 2, 0, 0, 0},
		[8]byte{byte(trace.KTransition), 1, 5, 0, 0, 0, 0, 0},
	))
	// Truncated batch: a batch bracket that never closes, out of order.
	f.Add(fuzzSeed(
		[8]byte{kb, 0, 0, 0, 0, 0, 2, 0},
		[8]byte{byte(trace.KBatchBegin), 0, 1, 0, 3, 0, 0, 1},
		[8]byte{byte(trace.KShootdown), 0, 0, 0, 0, 2, 1, 1},
	))

	// Two drain rounds (property 6): one whose ring revokes inside its
	// batch and whose one cross-ring round is fully acked, one with two
	// rounds of its own, the first acked by one core of two.
	f.Add(fuzzSeed(
		[8]byte{kb, 0, 0, 0, 0, 0, 2, 0},
		[8]byte{byte(trace.KDrainBegin), 0, 0, 1, 1, 0, 0, 0},
		[8]byte{byte(trace.KBatchBegin), 1, 1, 1, 2, 0, 0, 0},
		[8]byte{byte(trace.KOpBegin), 1, 1, byte(trace.OpRevoke), 3, 0, 0, 0},
		[8]byte{byte(trace.KRevoke), 1, 1, 0, 4, 0, 0, 0},
		[8]byte{byte(trace.KOpEnd), 1, 1, byte(trace.OpRevoke), 3, 0, 0, 0},
		[8]byte{byte(trace.KBatchEnd), 1, 1, 1, 2, 0, 0, 0},
		[8]byte{byte(trace.KShootdown), 0, 0, 3, 0, 2, 1, 0},
		[8]byte{byte(trace.KShootdownAck), 1, 0, 0, 0, 2, 1, 0},
		[8]byte{byte(trace.KShootdownAck), 2, 0, 1, 0, 2, 1, 0},
		[8]byte{byte(trace.KDrainEnd), 0, 0, 1, 1, 0, 0, 0},
		[8]byte{byte(trace.KDrainBegin), 0, 0, 1, 5, 0, 0, 0},
		[8]byte{byte(trace.KShootdown), 0, 0, 3, 0, 3, 1, 0},
		[8]byte{byte(trace.KShootdownAck), 1, 0, 0, 0, 3, 1, 1},
		[8]byte{byte(trace.KShootdown), 0, 0, 0, 0, 4, 1, 0},
		[8]byte{byte(trace.KDrainEnd), 0, 0, 1, 5, 0, 0, 0},
	))
	// Residency (property 2): core 1 enters domain 2 and fast-switches
	// to 3; a round for 2 and 3 that targets only core 0 leaves core 1
	// out twice, and core 0 acks a whole flush it was never resident
	// for; a later round for 3 acked by a core it did not target.
	f.Add(fuzzSeed(
		[8]byte{kb, 0, 0, 0, 0, 0, 2, 0},
		[8]byte{byte(trace.KTransition), 2, 2, 0, 0, 0, 0, 0},
		[8]byte{byte(trace.KTransition), 2, 3, 1, 0, 0, byte(trace.TransFast), 0},
		[8]byte{byte(trace.KOpBegin), 0, 1, byte(trace.OpRevoke), 1, 0, 0, 0},
		[8]byte{byte(trace.KShootdown), 0, 2, 1, 1, 0, 0, 0},
		[8]byte{byte(trace.KShootdownFor), 0, 3, 0, 0, 0, 0, 0},
		[8]byte{byte(trace.KShootdownAck), 0, 0, 0, 0, 0, 0, 0},
		[8]byte{byte(trace.KOpEnd), 0, 1, byte(trace.OpRevoke), 1, 0, 0, 0},
		[8]byte{byte(trace.KOpBegin), 0, 1, byte(trace.OpRevoke), 2, 0, 0, 0},
		[8]byte{byte(trace.KShootdown), 0, 3, 2, 0, 1, 1, 0},
		[8]byte{byte(trace.KShootdownAck), 0, 0, 0, 0, 1, 1, 0},
		[8]byte{byte(trace.KShootdownAck), 0, 0, 1, 0, 1, 1, 0},
		[8]byte{byte(trace.KOpEnd), 0, 1, byte(trace.OpRevoke), 2, 0, 0, 0},
	))

	f.Fuzz(func(t *testing.T, data []byte) {
		evs := decodeFuzzEvents(data)

		serial1, serial2 := Replay(evs), Replay(evs)
		serialErr := serial1.Err()

		// Determinism: the same input replays to the same verdict.
		if (serial2.Err() == nil) != (serialErr == nil) || !slices.Equal(serial1.Violations(), serial2.Violations()) {
			t.Fatal("replay nondeterministic")
		}

		sorted := slices.Clone(evs)
		slices.SortStableFunc(sorted, bySeq)

		// Online: merged every few events, the checker's reports carry
		// each violation and each structural event exactly once, in
		// order, and end on Replay's verdict.
		online := New()
		var reported []Violation
		var audited []trace.Event
		var dropped uint64
		collect := func(rep MergeReport) {
			reported = append(reported, rep.NewViolations...)
			audited = append(audited, rep.Events...)
			dropped += rep.Dropped
		}
		for i, ev := range sorted {
			online.Event(ev)
			if i%fuzzMergeEvery == 0 {
				collect(online.Merge())
			}
		}
		collect(online.End())
		if !slices.Equal(reported, serial1.Violations()) {
			t.Fatalf("online reports differ from replay:\n  online: %v\n  replay: %v", reported, serial1.Violations())
		}
		want := slices.DeleteFunc(slices.Clone(sorted), func(e trace.Event) bool { return !structural(e.Kind) })
		if dropped != 0 || !slices.Equal(audited, want) {
			t.Fatalf("online reports audited %d events (%d dropped), want the %d structural ones in order",
				len(audited), dropped, len(want))
		}
		if online.Counts() != serial1.Counts() {
			t.Fatalf("counts differ:\n  online: %+v\n  replay: %+v", online.Counts(), serial1.Counts())
		}

		// Oracle: the engine agrees with its allocating twin on every
		// violation, in order, and on the counts.
		twin := replayTwin(sorted)
		got := serial1.Violations()
		if len(got) != len(twin.violations) {
			t.Fatalf("engine found %d violations, twin %d:\n  engine: %v\n  twin:   %v",
				len(got), len(twin.violations), got, twin.violations)
		}
		for i := range got {
			if got[i] != twin.violations[i] {
				t.Fatalf("violation %d differs:\n  engine: %s\n  twin:   %s", i, got[i], twin.violations[i])
			}
		}
		if serial1.Counts() != twin.counts {
			t.Fatalf("counts differ:\n  engine: %+v\n  twin:   %+v", serial1.Counts(), twin.counts)
		}
	})
}

// TestFuzzDecoderCoversEveryKind: the fuzz decoder draws every event
// kind, drain frames included, and no more.
func TestFuzzDecoderCoversEveryKind(t *testing.T) {
	if last := trace.Kind(fuzzKinds - 1).String(); strings.HasPrefix(last, "kind(") {
		t.Fatalf("fuzzKinds-1 = %s is not a kind", last)
	}
	if next := trace.Kind(fuzzKinds).String(); !strings.HasPrefix(next, "kind(") {
		t.Fatalf("kind %s is never fuzzed: raise fuzzKinds", next)
	}
}
