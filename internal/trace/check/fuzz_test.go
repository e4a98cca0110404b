package check

import (
	"slices"
	"strings"
	"testing"

	"github.com/tyche-sim/tyche/internal/trace"
)

// fuzzRecordSize is the fixed-width wire format FuzzTraceReplay decodes:
// one event per 8 bytes — kind, core, domain, aux, node, addr-page,
// size-pages (a KBoot's core count), seq-jitter.
const fuzzRecordSize = 8

// fuzzKinds is how many event kinds the decoder draws from: every kind
// there is (TestFuzzDecoderCoversEveryKind fails when one is added).
const fuzzKinds = uint64(trace.KDrainEnd) + 1

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
		if evs[i].Kind == trace.KBoot {
			// A core count the acks (Aux < 8) can complete.
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

// fuzzSeed assembles one record.
func fuzzSeed(recs ...[fuzzRecordSize]byte) []byte {
	var out []byte
	for _, r := range recs {
		out = append(out, r[:]...)
	}
	return out
}

// FuzzTraceReplay feeds adversarial streams through BOTH checkers:
// neither may panic, each must be deterministic across two runs of the
// same input, and the two must agree on verdict, violation multiset,
// and counts — the fuzz-driven form of the differential suite.
func FuzzTraceReplay(f *testing.F) {
	kb := byte(trace.KBoot)
	// Clean op-bracketed revoke with a full shootdown round (2 cores).
	f.Add(fuzzSeed(
		[8]byte{kb, 0, 0, 0, 0, 0, 2, 0},
		[8]byte{byte(trace.KOpBegin), 0, 1, byte(trace.OpRevoke), 1, 0, 0, 0},
		[8]byte{byte(trace.KShootdown), 0, 0, 0, 0, 1, 1, 0},
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
		[8]byte{byte(trace.KShootdown), 0, 0, 0, 0, 2, 1, 0},
		[8]byte{byte(trace.KShootdownAck), 1, 0, 0, 0, 2, 1, 0},
		[8]byte{byte(trace.KShootdownAck), 2, 0, 1, 0, 2, 1, 0},
		[8]byte{byte(trace.KDrainEnd), 0, 0, 1, 1, 0, 0, 0},
		[8]byte{byte(trace.KDrainBegin), 0, 0, 1, 5, 0, 0, 0},
		[8]byte{byte(trace.KShootdown), 0, 0, 0, 0, 3, 1, 0},
		[8]byte{byte(trace.KShootdownAck), 1, 0, 0, 0, 3, 1, 1},
		[8]byte{byte(trace.KShootdown), 0, 0, 0, 0, 4, 1, 0},
		[8]byte{byte(trace.KDrainEnd), 0, 0, 1, 5, 0, 0, 0},
	))

	f.Fuzz(func(t *testing.T, data []byte) {
		evs := decodeFuzzEvents(data)

		serial1, serial2 := Replay(evs), Replay(evs)
		sh1, sh2 := ReplaySharded(evs), ReplaySharded(evs)
		serialErr, shErr := serial1.Err(), sh1.Err()

		// Determinism: the same input replays to the same verdict.
		if (serial2.Err() == nil) != (serialErr == nil) {
			t.Fatal("serial replay nondeterministic")
		}
		if (sh2.Err() == nil) != (shErr == nil) {
			t.Fatal("sharded replay nondeterministic")
		}
		m1, m2 := msgsOf(serial1.Violations()), msgsOf(serial2.Violations())
		s1, s2 := msgsOf(sh1.Violations()), msgsOf(sh2.Violations())
		if len(m1) != len(m2) || len(s1) != len(s2) {
			t.Fatalf("nondeterministic violation counts: serial %d/%d, sharded %d/%d",
				len(m1), len(m2), len(s1), len(s2))
		}

		// Differential: sharded and serial agree byte for byte.
		if (serialErr == nil) != (shErr == nil) {
			t.Fatalf("checkers disagree on verdict:\n  serial:  %v\n  sharded: %v", serialErr, shErr)
		}
		if len(m1) != len(s1) {
			t.Fatalf("violation multisets differ:\n  serial:  %q\n  sharded: %q", m1, s1)
		}
		for i := range m1 {
			if m1[i] != s1[i] {
				t.Fatalf("violation %d differs:\n  serial:  %s\n  sharded: %s", i, m1[i], s1[i])
			}
		}
		if serial1.Counts() != sh1.Counts() {
			t.Fatalf("counts differ:\n  serial:  %+v\n  sharded: %+v", serial1.Counts(), sh1.Counts())
		}

		// Oracle: the engine agrees with its allocating twin on every
		// violation, in order, and on the counts.
		sorted := slices.Clone(evs)
		slices.SortStableFunc(sorted, bySeq)
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
