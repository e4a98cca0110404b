package check

import (
	"strings"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// feeder builds synthetic event streams without a machine.
type feeder struct {
	seq uint64
	c   *Checker
}

func newFeeder(cores int) *feeder {
	f := &feeder{c: New()}
	f.emit(trace.KBoot, 0, 0, 0, 0, uint64(cores))
	return f
}

func (f *feeder) emit(k trace.Kind, dom, aux, node, addr, size uint64) {
	f.seq++
	f.c.Event(trace.Event{
		Seq: f.seq, Core: trace.GlobalCore, Kind: k,
		Domain: dom, Aux: aux, Node: node, Addr: addr, Size: size,
	})
}

// enter emits a transition on core into dom.
func (f *feeder) enter(core int32, dom, kind uint64) {
	f.seq++
	f.c.Event(trace.Event{Seq: f.seq, Core: core, Kind: trace.KTransition, Domain: dom, Size: kind})
}

func wantClean(t *testing.T, f *feeder) {
	t.Helper()
	if err := f.c.Err(); err != nil {
		t.Fatalf("clean stream flagged: %v", err)
	}
}

func wantViolation(t *testing.T, f *feeder, substr string) {
	t.Helper()
	err := f.c.Err()
	if err == nil {
		t.Fatalf("stream accepted; want violation containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("violation %q does not mention %q", err, substr)
	}
}

func TestCleanRevokeStream(t *testing.T) {
	f := newFeeder(2)
	f.emit(trace.KOpBegin, 1, trace.OpRevoke, 0, 0, 0)
	f.emit(trace.KRevoke, 1, 0, 7, 0, 0)
	f.emit(trace.KShootdown, 0, 3, 0, 0x1000, 4096)
	f.emit(trace.KShootdownAck, 0, 0, 0, 0x1000, 4096)
	f.emit(trace.KShootdownAck, 0, 1, 0, 0x1000, 4096)
	f.emit(trace.KOpEnd, 1, trace.OpRevoke, 0, 0, 0)
	wantClean(t, f)
	if c := f.c.Counts(); c.Revocations != 1 || c.CapOps != 1 || c.Shootdowns != 1 {
		t.Fatalf("counts: %+v", c)
	}
}

func TestMissingShootdownAckFlagged(t *testing.T) {
	f := newFeeder(2)
	f.emit(trace.KOpBegin, 1, trace.OpRevoke, 0, 0, 0)
	f.emit(trace.KShootdown, 0, 3, 0, 0x1000, 4096)
	f.emit(trace.KShootdownAck, 0, 0, 0, 0x1000, 4096)
	// Core 1 never acks.
	f.emit(trace.KOpEnd, 1, trace.OpRevoke, 0, 0, 0)
	wantViolation(t, f, "acked by 1/2 cores")
}

func TestAckWithoutShootdownFlagged(t *testing.T) {
	f := newFeeder(2)
	f.emit(trace.KShootdownAck, 0, 0, 0, 0, 0)
	wantViolation(t, f, "no shootdown in flight")
}

func TestUnscrubbedKillFlagged(t *testing.T) {
	f := newFeeder(2)
	f.emit(trace.KForceKill, 5, 0, 0, 0, 0)
	f.emit(trace.KOpBegin, 5, trace.OpKill, 0, 0, 0)
	f.emit(trace.KScrubPlan, 5, 0, 0, 0x4000, 2*phys.PageSize)
	f.emit(trace.KRevoke, 5, 1, 0, 0, 0)
	// The planned region is never scrubbed.
	f.emit(trace.KKill, 5, 0, 0, 0, 0)
	f.emit(trace.KOpEnd, 5, trace.OpKill, 0, 0, 0)
	wantViolation(t, f, "unscrubbed exclusive region")
}

func TestScrubbedKillClean(t *testing.T) {
	f := newFeeder(1)
	f.emit(trace.KForceKill, 5, 0, 0, 0, 0)
	f.emit(trace.KOpBegin, 5, trace.OpKill, 0, 0, 0)
	f.emit(trace.KScrubPlan, 5, 0, 0, 0x4000, 2*phys.PageSize)
	f.emit(trace.KRevoke, 5, 1, 0, 0, 0)
	f.emit(trace.KShootdown, 0, 1, 0, 0x4000, 2*phys.PageSize)
	f.emit(trace.KShootdownAck, 0, 0, 0, 0x4000, 2*phys.PageSize)
	f.emit(trace.KScrub, 5, 0, 0, 0x4000, 2*phys.PageSize)
	f.emit(trace.KKill, 5, 0, 0, 0, 0)
	f.emit(trace.KOpEnd, 5, trace.OpKill, 0, 0, 0)
	wantClean(t, f)
	if c := f.c.Counts(); c.ForcedKills != 1 || c.PagesScrubbed != 2 {
		t.Fatalf("counts: %+v", c)
	}
}

func TestDeadDomainSilence(t *testing.T) {
	f := newFeeder(1)
	f.emit(trace.KKill, 5, 0, 0, 0, 0)
	f.emit(trace.KShare, 5, 1, 9, 0x1000, 4096)
	wantViolation(t, f, "dead domain 5")
}

func TestDeadDomainFilterProgramming(t *testing.T) {
	f := newFeeder(1)
	f.emit(trace.KKill, 5, 0, 0, 0, 0)
	f.emit(trace.KEPTMap, 5, 0, 7, 0x1000, 4096)
	wantViolation(t, f, "dead domain 5")
}

func TestUnbalancedOpFlagged(t *testing.T) {
	f := newFeeder(1)
	f.emit(trace.KOpBegin, 1, trace.OpShare, 0, 0, 0)
	wantViolation(t, f, "still open")
}

func TestOrphanShootdownNeedsFullAcks(t *testing.T) {
	f := newFeeder(2)
	f.emit(trace.KShootdown, 0, 3, 0, 0x1000, 4096)
	f.emit(trace.KShootdownAck, 0, 0, 0, 0x1000, 4096)
	wantViolation(t, f, "outside any operation")
}

func TestReplayMatchesOnline(t *testing.T) {
	tr := trace.New(2, 0, nil)
	online := New()
	tr.Attach(online)
	tr.Emit(trace.GlobalCore, trace.KBoot, 0, 0, 0, 0, 2)
	tr.Emit(trace.GlobalCore, trace.KOpBegin, 1, trace.OpRevoke, 0, 0, 0)
	tr.Emit(trace.GlobalCore, trace.KShootdown, 0, 3, 0, 0x1000, 4096)
	tr.Emit(trace.GlobalCore, trace.KShootdownAck, 0, 0, 0, 0x1000, 4096)
	tr.Emit(trace.GlobalCore, trace.KOpEnd, 1, trace.OpRevoke, 0, 0, 0)
	replayed := Replay(tr.Events())
	onErr, repErr := online.Err(), replayed.Err()
	if (onErr == nil) != (repErr == nil) {
		t.Fatalf("online=%v replay=%v", onErr, repErr)
	}
	if onErr == nil {
		t.Fatal("stream with a half-acked shootdown accepted")
	}
	if online.Counts() != replayed.Counts() {
		t.Fatalf("counts diverge: online %+v, replay %+v", online.Counts(), replayed.Counts())
	}
}

// TestShootdownTargetsResidency: a round must target every core a
// transition left resident for one of its domains — a fast switch adds
// to what the core holds, any other transition replaces it, and a
// whole-TLB round the core acks empties it.
func TestShootdownTargetsResidency(t *testing.T) {
	revoke := func(f *feeder, tok, dom, targets, full uint64, acks ...uint64) {
		f.emit(trace.KOpBegin, 1, trace.OpRevoke, tok, 0, 0)
		f.emit(trace.KShootdown, dom, targets, full, 0x1000, 4096)
		for _, c := range acks {
			f.emit(trace.KShootdownAck, 0, c, 0, 0x1000, 4096)
		}
		f.emit(trace.KOpEnd, 1, trace.OpRevoke, tok, 0, 0)
	}
	t.Run("fast switch keeps the core resident", func(t *testing.T) {
		f := newFeeder(2)
		f.enter(1, 5, trace.TransLaunch)
		f.enter(1, 6, trace.TransFast)
		revoke(f, 1, 5, 0, 0)
		wantViolation(t, f, "left out core 1, resident for domain 5")
	})
	t.Run("install replaces residency", func(t *testing.T) {
		f := newFeeder(2)
		f.enter(1, 5, trace.TransLaunch)
		f.enter(1, 6, trace.TransCall)
		revoke(f, 1, 5, 0, 0)
		wantClean(t, f)
	})
	t.Run("whole flush empties residency", func(t *testing.T) {
		f := newFeeder(2)
		f.enter(0, 5, trace.TransLaunch)
		revoke(f, 1, 7, 1, 1, 0)
		revoke(f, 2, 5, 0, 0)
		wantClean(t, f)
	})
	t.Run("further domains", func(t *testing.T) {
		f := newFeeder(2)
		f.enter(0, 5, trace.TransLaunch)
		f.emit(trace.KOpBegin, 1, trace.OpKill, 1, 0, 0)
		f.emit(trace.KShootdown, 7, 0, 0, 0x1000, 4096)
		f.emit(trace.KShootdownFor, 5, 0, 0, 0x1000, 4096)
		f.emit(trace.KOpEnd, 1, trace.OpKill, 1, 0, 0)
		wantViolation(t, f, "left out core 0, resident for domain 5")
	})
	t.Run("ack from an untargeted core", func(t *testing.T) {
		f := newFeeder(2)
		revoke(f, 1, 5, 1, 0, 0, 1)
		wantViolation(t, f, "core 1 acknowledged a shootdown that did not target it")
	})
	t.Run("targeted core never acks", func(t *testing.T) {
		f := newFeeder(2)
		f.enter(1, 5, trace.TransLaunch)
		revoke(f, 1, 5, 2, 0)
		wantViolation(t, f, "acked by 0/1 cores")
	})
}

// TestFrameRunsOneRound: property 5 holds for every frame kind. A revoke
// frame and a kill frame that each run two fully acked rounds are each
// flagged once, by the engine and by its twin alike; a kill storm whose
// victims' frames nest and share one round is clean.
func TestFrameRunsOneRound(t *testing.T) {
	ev := func(seq uint64, k trace.Kind, dom, aux, node, addr, size uint64) trace.Event {
		return trace.Event{Seq: seq, Core: trace.GlobalCore, Kind: k, Domain: dom, Aux: aux, Node: node, Addr: addr, Size: size}
	}
	twoRounds := func(op uint64) []trace.Event {
		return []trace.Event{
			ev(1, trace.KBoot, 0, 0, 0, 0, 1),
			ev(2, trace.KOpBegin, 5, op, 1, 0, 0),
			ev(3, trace.KShootdown, 5, 1, 0, 0x4000, 4096),
			ev(4, trace.KShootdownAck, 0, 0, 0, 0x4000, 4096),
			ev(5, trace.KShootdown, 5, 1, 0, 0x6000, 4096),
			ev(6, trace.KShootdownAck, 0, 0, 0, 0x6000, 4096),
			ev(7, trace.KOpEnd, 5, op, 1, 0, 0),
		}
	}
	storm := []trace.Event{
		ev(1, trace.KBoot, 0, 0, 0, 0, 1),
		ev(2, trace.KOpBegin, 5, trace.OpKill, 1, 0, 0),
		ev(3, trace.KOpBegin, 6, trace.OpKill, 2, 0, 0),
		ev(4, trace.KShootdown, 5, 1, 0, 0, 0),
		ev(5, trace.KShootdownFor, 6, 0, 0, 0, 0),
		ev(6, trace.KShootdownAck, 0, 0, 0, 0, 0),
		ev(7, trace.KKill, 5, 0, 0, 0, 0),
		ev(8, trace.KOpEnd, 5, trace.OpKill, 1, 0, 0),
		ev(9, trace.KKill, 6, 0, 0, 0, 0),
		ev(10, trace.KOpEnd, 6, trace.OpKill, 2, 0, 0),
	}
	for _, tc := range []struct {
		name string
		evs  []trace.Event
		want string
	}{
		{"revoke", twoRounds(trace.OpRevoke), "operation performed 2 shootdown rounds"},
		{"kill", twoRounds(trace.OpKill), "operation performed 2 shootdown rounds"},
		{"storm", storm, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := Replay(tc.evs).Violations()
			twin := replayTwin(tc.evs).violations
			if len(got) != len(twin) || (len(got) > 0 && got[0] != twin[0]) {
				t.Fatalf("engine %v, twin %v", got, twin)
			}
			switch {
			case tc.want == "" && len(got) != 0:
				t.Fatalf("clean storm flagged: %v", got)
			case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0].Msg, tc.want)):
				t.Fatalf("violations %v, want one mentioning %q", got, tc.want)
			}
		})
	}
}
