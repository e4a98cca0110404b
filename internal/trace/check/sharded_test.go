package check

import (
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// sfeeder builds synthetic event streams for the sharded checker and a
// serial reference simultaneously, assigning sequence numbers the way
// the tracer would.
type sfeeder struct {
	seq    uint64
	serial *Checker
	sh     *Sharded
}

func newSFeeder(cores int) *sfeeder {
	f := &sfeeder{serial: New(), sh: NewShardedN(cores + 1)}
	f.emitOn(-1, trace.KBoot, 0, 0, 0, 0, uint64(cores))
	return f
}

// emitOn delivers one event on the given core (-1 = global) to both
// checkers. Ring index mapping matches the tracer's: global ring 0,
// core c ring c+1.
func (f *sfeeder) emitOn(core int32, k trace.Kind, dom, aux, node, addr, size uint64) {
	f.seq++
	ev := trace.Event{
		Seq: f.seq, Core: core, Kind: k,
		Domain: dom, Aux: aux, Node: node, Addr: addr, Size: size,
	}
	f.serial.Event(ev)
	f.sh.ShardEvent(int(core)+1, ev)
}

// agree asserts both checkers reach the same verdict with the same
// violation-message multiset and identical counts.
func (f *sfeeder) agree(t *testing.T) error {
	t.Helper()
	serialErr, shErr := f.serial.Err(), f.sh.Err()
	if (serialErr == nil) != (shErr == nil) {
		t.Fatalf("verdicts differ:\n  serial:  %v\n  sharded: %v", serialErr, shErr)
	}
	a := msgsOf(f.serial.Violations())
	b := msgsOf(f.sh.Violations())
	if len(a) != len(b) {
		t.Fatalf("violation counts differ: serial %q, sharded %q", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("violation %d differs:\n  serial:  %s\n  sharded: %s", i, a[i], b[i])
		}
	}
	if ca, cb := f.serial.Counts(), f.sh.Counts(); ca != cb {
		t.Fatalf("counts differ:\n  serial:  %+v\n  sharded: %+v", ca, cb)
	}
	return serialErr
}

func msgsOf(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Msg
	}
	sort.Strings(out)
	return out
}

// TestShardedCleanStreamAgrees: a clean multi-core stream mixing local
// (transitions, vmcalls, IRQs) and structural (op-bracketed revoke with
// a fully-acked shootdown) kinds is accepted by both checkers with
// identical counts.
func TestShardedCleanStreamAgrees(t *testing.T) {
	f := newSFeeder(2)
	f.emitOn(0, trace.KTransition, 1, 0, 0, 0, trace.TransFast)
	f.emitOn(1, trace.KVMCall, 1, 0, 0, 0, 0)
	f.emitOn(1, trace.KIRQRoute, 1, 3, 0, 0, 0)
	f.emitOn(-1, trace.KOpBegin, 1, trace.OpRevoke, 1, 0, 0)
	f.emitOn(-1, trace.KRevoke, 1, 0, 7, 0, 0)
	f.emitOn(-1, trace.KShootdown, 0, 3, 0, 0x1000, 4096)
	f.emitOn(-1, trace.KShootdownAck, 0, 0, 0, 0x1000, 4096)
	f.emitOn(-1, trace.KShootdownAck, 0, 1, 0, 0x1000, 4096)
	f.emitOn(-1, trace.KOpEnd, 1, trace.OpRevoke, 1, 0, 0)
	f.emitOn(0, trace.KTransition, 1, 0, 0, 0, trace.TransLaunch)
	if err := f.agree(t); err != nil {
		t.Fatalf("clean stream flagged: %v", err)
	}
	c := f.sh.Counts()
	if c.FastSwitches != 1 || c.Transitions != 1 || c.VMCalls != 1 || c.IRQsRouted != 1 || c.Revocations != 1 {
		t.Fatalf("sharded counts: %+v", c)
	}
}

// TestShardedMissingAckAgrees: the half-acked-shootdown violation is
// structural — resolved at the merge — and must match the serial
// checker's message byte for byte.
func TestShardedMissingAckAgrees(t *testing.T) {
	f := newSFeeder(2)
	f.emitOn(-1, trace.KOpBegin, 1, trace.OpRevoke, 1, 0, 0)
	f.emitOn(-1, trace.KShootdown, 0, 3, 0, 0x1000, 4096)
	f.emitOn(-1, trace.KShootdownAck, 0, 0, 0, 0x1000, 4096)
	f.emitOn(-1, trace.KOpEnd, 1, trace.OpRevoke, 1, 0, 0)
	if err := f.agree(t); err == nil {
		t.Fatal("half-acked shootdown accepted by both checkers")
	}
}

// TestShardedUnscrubbedKillAgrees: scrub-before-kill is a structural
// property; both checkers must reject the same way.
func TestShardedUnscrubbedKillAgrees(t *testing.T) {
	f := newSFeeder(1)
	f.emitOn(-1, trace.KForceKill, 5, 0, 0, 0, 0)
	f.emitOn(-1, trace.KOpBegin, 5, trace.OpKill, 1, 0, 0)
	f.emitOn(-1, trace.KScrubPlan, 5, 0, 0, 0x4000, 2*phys.PageSize)
	f.emitOn(-1, trace.KRevoke, 5, 1, 0, 0, 0)
	f.emitOn(-1, trace.KKill, 5, 0, 0, 0, 0)
	f.emitOn(-1, trace.KOpEnd, 5, trace.OpKill, 1, 0, 0)
	if err := f.agree(t); err == nil {
		t.Fatal("unscrubbed kill accepted by both checkers")
	}
}

// TestShardedEagerDeadTransition: a transition by a killed domain is a
// LOCAL kind — the shard must flag it eagerly, before any merge runs,
// off the published kill map; and End() must not double-report it.
func TestShardedEagerDeadTransition(t *testing.T) {
	sh := NewShardedN(3)
	sh.ShardEvent(0, trace.Event{Seq: 1, Core: -1, Kind: trace.KBoot, Size: 2})
	sh.ShardEvent(0, trace.Event{Seq: 2, Core: -1, Kind: trace.KKill, Domain: 7})
	// The dead domain "runs" on core 1 after its kill — no merge yet.
	sh.ShardEvent(2, trace.Event{Seq: 3, Core: 1, Kind: trace.KTransition, Domain: 7})
	if got := len(sh.Violations()); got != 1 {
		t.Fatalf("eager dead-transition check found %d violations before merge, want 1", got)
	}
	if err := sh.Err(); err == nil {
		t.Fatal("dead transition accepted")
	}
	if got := len(sh.Violations()); got != 1 {
		t.Fatalf("End() double-reported: %d violations, want 1", got)
	}
	serial := Replay([]trace.Event{
		{Seq: 1, Core: -1, Kind: trace.KBoot, Size: 2},
		{Seq: 2, Core: -1, Kind: trace.KKill, Domain: 7},
		{Seq: 3, Core: 1, Kind: trace.KTransition, Domain: 7},
	})
	if serial.Err() == nil {
		t.Fatal("serial reference accepted the dead transition")
	}
	if a, b := msgsOf(serial.Violations()), msgsOf(sh.Violations()); a[0] != b[0] {
		t.Fatalf("messages differ: serial %q, sharded %q", a[0], b[0])
	}
}

// TestShardedStabilityGateDefers: a merge attempted while assigned
// events have not all been delivered must defer (carry its buffers),
// and resolve once delivery catches up. Simulated by emitting into a
// tracer before the sharded sink is attached: Len() counts the events,
// the shards never saw them.
func TestShardedStabilityGateDefers(t *testing.T) {
	tr := trace.New(2, 0, nil)
	tr.Emit(trace.GlobalCore, trace.KBoot, 0, 0, 0, 0, 2)
	tr.Emit(trace.GlobalCore, trace.KOpBegin, 1, trace.OpShare, 1, 0, 0)
	tr.Emit(trace.GlobalCore, trace.KShare, 1, 0, 7, 0x1000, 4096)
	tr.Emit(trace.GlobalCore, trace.KOpEnd, 1, trace.OpShare, 1, 0, 0)

	sh := NewSharded(tr)
	rep := sh.Merge()
	if rep.Merged {
		t.Fatal("merge resolved with undelivered events outstanding")
	}
	if sh.Deferred() != 1 || sh.Merges() != 0 {
		t.Fatalf("deferred=%d merges=%d after gated merge", sh.Deferred(), sh.Merges())
	}
	// Deliver what the tracer assigned; the gate now passes.
	for _, ev := range tr.Events() {
		sh.ShardEvent(0, ev)
	}
	rep = sh.Merge()
	if !rep.Merged || len(rep.Events) != 4 {
		t.Fatalf("catch-up merge = %+v, want 4 resolved events", rep)
	}
	if sh.Merges() != 1 {
		t.Fatalf("merges = %d, want 1", sh.Merges())
	}
	if err := sh.Err(); err != nil {
		t.Fatalf("clean stream flagged: %v", err)
	}
}

// TestShardedViaTracerSinkMode: the end-to-end sink wiring — tracer
// with both a serial sink and a sharded sink attached — produces
// agreeing verdicts on a violating stream, and incremental merges
// resolve events as they go.
func TestShardedViaTracerSinkMode(t *testing.T) {
	tr := trace.New(2, 0, nil)
	serial := New()
	tr.Attach(serial)
	sh := NewSharded(tr)
	tr.AttachSharded(sh)

	tr.Emit(trace.GlobalCore, trace.KBoot, 0, 0, 0, 0, 2)
	tr.Emit(0, trace.KTransition, 1, 0, 0, 0, trace.TransLaunch)
	tr.Emit(trace.GlobalCore, trace.KOpBegin, 1, trace.OpRevoke, 1, 0, 0)
	if rep := sh.Merge(); !rep.Merged {
		t.Fatal("quiescent merge deferred with no emission in flight")
	}
	tr.Emit(trace.GlobalCore, trace.KShootdown, 0, 3, 0, 0x1000, 4096)
	tr.Emit(trace.GlobalCore, trace.KShootdownAck, 0, 0, 0, 0x1000, 4096)
	tr.Emit(trace.GlobalCore, trace.KOpEnd, 1, trace.OpRevoke, 1, 0, 0)

	serialErr, shErr := serial.Err(), sh.Err()
	if serialErr == nil || shErr == nil {
		t.Fatalf("half-acked shootdown accepted: serial=%v sharded=%v", serialErr, shErr)
	}
	if a, b := msgsOf(serial.Violations()), msgsOf(sh.Violations()); len(a) != len(b) || a[0] != b[0] {
		t.Fatalf("messages differ: serial %q, sharded %q", a, b)
	}
	if serial.Counts() != sh.Counts() {
		t.Fatalf("counts differ: serial %+v, sharded %+v", serial.Counts(), sh.Counts())
	}
}

// TestReplayShardedMatchesReplay: the replay entry points over a
// synthetic mixed stream agree on verdict, messages, and counts.
func TestReplayShardedMatchesReplay(t *testing.T) {
	var evs []trace.Event
	seq := uint64(0)
	add := func(core int32, k trace.Kind, dom, aux, node, addr, size uint64) {
		seq++
		evs = append(evs, trace.Event{Seq: seq, Core: core, Kind: k,
			Domain: dom, Aux: aux, Node: node, Addr: addr, Size: size})
	}
	add(-1, trace.KBoot, 0, 0, 0, 0, 2)
	for i := 0; i < 600; i++ { // cross the replayMergeEvery boundary
		add(int32(i%2), trace.KTransition, 1, 0, 0, 0, trace.TransFast)
	}
	add(-1, trace.KOpBegin, 1, trace.OpRevoke, 1, 0, 0)
	add(-1, trace.KShootdown, 0, 3, 0, 0x1000, 4096)
	add(-1, trace.KShootdownAck, 0, 0, 0, 0x1000, 4096)
	add(-1, trace.KOpEnd, 1, trace.OpRevoke, 1, 0, 0) // missing one ack
	add(-1, trace.KKill, 1, 0, 0, 0, 0)
	add(0, trace.KTransition, 1, 0, 0, 0, trace.TransFast) // dead transition

	serial := Replay(evs)
	sh := ReplaySharded(evs)
	serialErr, shErr := serial.Err(), sh.Err()
	if serialErr == nil || shErr == nil {
		t.Fatalf("violating stream accepted: serial=%v sharded=%v", serialErr, shErr)
	}
	a, b := msgsOf(serial.Violations()), msgsOf(sh.Violations())
	if len(a) != len(b) {
		t.Fatalf("violation multisets differ:\n  serial:  %q\n  sharded: %q", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("violation %d differs: serial %q, sharded %q", i, a[i], b[i])
		}
	}
	if serial.Counts() != sh.Counts() {
		t.Fatalf("counts differ: serial %+v, sharded %+v", serial.Counts(), sh.Counts())
	}
	if sh.Merges() < 2 {
		t.Fatalf("replay ran %d merges; want incremental merging", sh.Merges())
	}
}

// TestShardEventLocalPathAllocFree pins the hot shard-local path at
// zero allocations — the property the BenchmarkShardedEvent CI gate
// enforces at scale.
func TestShardEventLocalPathAllocFree(t *testing.T) {
	sh := NewShardedN(3)
	sh.ShardEvent(0, trace.Event{Seq: 1, Core: -1, Kind: trace.KBoot, Size: 2})
	seq := uint64(1)
	ev := trace.Event{Core: 0, Kind: trace.KTransition, Domain: 1, Size: trace.TransFast}
	// Warm the lastUse map so steady state is key overwrite, not growth.
	seq++
	ev.Seq = seq
	sh.ShardEvent(1, ev)
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		ev.Seq = seq
		sh.ShardEvent(1, ev)
	})
	if allocs != 0 {
		t.Fatalf("shard-local KTransition path allocates %.1f/op, want 0", allocs)
	}
	vm := trace.Event{Core: 1, Kind: trace.KVMCall, Domain: 1}
	allocs = testing.AllocsPerRun(1000, func() {
		seq++
		vm.Seq = seq
		sh.ShardEvent(2, vm)
	})
	if allocs != 0 {
		t.Fatalf("shard-local KVMCall path allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkShardedEvent measures the sharded checker's hot delivery
// path for the local kinds. CI parses the report and fails
// if allocs/op is nonzero.
func BenchmarkShardedEvent(b *testing.B) {
	sh := NewShardedN(3)
	sh.ShardEvent(0, trace.Event{Seq: 1, Core: -1, Kind: trace.KBoot, Size: 2})
	ev := trace.Event{Core: 0, Kind: trace.KTransition, Domain: 1, Size: trace.TransFast}
	seq := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		ev.Seq = seq
		sh.ShardEvent(1, ev)
	}
}

// BenchmarkSerialCheckerEvent is the reference point: the serial
// checker's mutex-serialised Event on the same kind.
func BenchmarkSerialCheckerEvent(b *testing.B) {
	c := New()
	c.Event(trace.Event{Seq: 1, Core: -1, Kind: trace.KBoot, Size: 2})
	ev := trace.Event{Core: 0, Kind: trace.KTransition, Domain: 1, Size: trace.TransFast}
	seq := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		ev.Seq = seq
		c.Event(ev)
	}
}

// TestShardedKillCostFlat: delivering a kill costs the same however many
// kills came before it. Each kill is followed by a transition on a core
// ring, so a shard catches up on the kill log as it goes; merges run
// between the measured windows, never inside them.
func TestShardedKillCostFlat(t *testing.T) {
	sh := NewShardedN(3)
	sh.ShardEvent(0, trace.Event{Seq: 1, Core: -1, Kind: trace.KBoot, Size: 2})
	seq := uint64(1)
	deliver := func(kills int) {
		for i := 0; i < kills; i++ {
			seq++
			sh.ShardEvent(0, trace.Event{Seq: seq, Core: -1, Kind: trace.KKill, Domain: seq})
			seq++
			sh.ShardEvent(1, trace.Event{Seq: seq, Core: 0, Kind: trace.KTransition, Domain: 1})
		}
	}
	bytesPerKill := func(kills int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		deliver(kills)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(kills)
	}
	upTo := func(n int) {
		for delivered := int(seq) / 2; delivered < n; delivered += 100 {
			deliver(min(100, n-delivered))
			sh.Merge()
		}
	}
	upTo(100)
	early := bytesPerKill(100)
	sh.Merge()
	upTo(10_000)
	late := bytesPerKill(100)
	t.Logf("bytes per kill: %.0f at kills 100-200, %.0f at kills 10000-10100", early, late)
	if late > 2*early {
		t.Fatalf("kills 10000-10100 cost %.0f B each, kills 100-200 %.0f B: a kill's cost grows with the kills before it", late, early)
	}
	if err := sh.Err(); err != nil {
		t.Fatalf("clean kill stream flagged: %v", err)
	}
}

// TestShardedReportsEachViolationOnce: an eager detection collected by
// a merge the stability gate deferred rides in the next stable merge's
// report, End's report carries only what no merge did, and the reports
// together hold every recorded violation exactly once.
func TestShardedReportsEachViolationOnce(t *testing.T) {
	tr := trace.New(2, 0, nil)
	sh := NewSharded(tr)
	tr.AttachSharded(sh)
	tr.Emit(trace.GlobalCore, trace.KBoot, 0, 0, 0, 0, 2)
	tr.Emit(trace.GlobalCore, trace.KKill, 7, 0, 0, 0, 0)
	tr.Emit(0, trace.KTransition, 7, 0, 0, 0, trace.TransCall) // eager
	// An emission the shards have not seen yet holds the gate shut.
	tr.AttachSharded(nil)
	tr.Emit(trace.GlobalCore, trace.KShare, 7, 0, 1, 0x1000, 4096) // engine
	tr.AttachSharded(sh)

	var reported []Violation
	if rep := sh.Merge(); rep.Merged || len(rep.NewViolations) != 0 {
		t.Fatalf("gated merge reported %+v", rep)
	}
	evs := tr.Events()
	sh.ShardEvent(0, evs[len(evs)-1])
	rep := sh.Merge()
	if !rep.Merged || len(rep.NewViolations) != 2 {
		t.Fatalf("catch-up merge reported %d violations, want the eager and the engine one", len(rep.NewViolations))
	}
	reported = append(reported, rep.NewViolations...)
	tr.Emit(trace.GlobalCore, trace.KOpBegin, 0, trace.OpRevoke, 9, 0, 0) // never closed
	end := sh.End()
	if len(end.NewViolations) != 1 || len(end.Events) != 1 {
		t.Fatalf("End reported %d violations over %d events, want the open op over 1", len(end.NewViolations), len(end.Events))
	}
	reported = append(reported, end.NewViolations...)
	if again := sh.End(); again.Merged || len(again.NewViolations) != 0 {
		t.Fatalf("second End reported %+v", again)
	}
	a, b := msgsOf(reported), msgsOf(sh.Violations())
	if len(a) != len(b) {
		t.Fatalf("reported %q, recorded %q", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reported %q, recorded %q", a, b)
		}
	}
}

// TestShardedResidencyLogOverwrites: a core that makes many transitions
// between rounds keeps a residency log of one step per domain it
// fast-switched to since its last replacing transition, and the
// verdicts still agree with the serial checker's — a round after the
// churn must target the core for what it last entered, not for what it
// left before the round.
func TestShardedResidencyLogOverwrites(t *testing.T) {
	f := newSFeeder(2)
	for i := 0; i < 1000; i++ {
		f.emitOn(1, trace.KTransition, 5, 1, 0, 0, trace.TransCall)
		f.emitOn(1, trace.KTransition, 1, 5, 0, 0, trace.TransReturn)
	}
	f.emitOn(1, trace.KTransition, 6, 1, 0, 0, trace.TransFast)
	f.emitOn(1, trace.KTransition, 6, 1, 0, 0, trace.TransFast)
	if n := len(f.sh.shards[2].steps); n != 2 {
		t.Fatalf("core 1's log holds %d steps after 2001 transitions and no round, want 2", n)
	}
	// Domain 5 is no longer resident; 1 and 6 are.
	f.emitOn(-1, trace.KOpBegin, 1, trace.OpRevoke, 1, 0, 0)
	f.emitOn(-1, trace.KShootdown, 5, 0, 0, 0x1000, 4096)
	f.emitOn(-1, trace.KShootdownFor, 6, 0, 0, 0x1000, 4096)
	f.emitOn(-1, trace.KOpEnd, 1, trace.OpRevoke, 1, 0, 0)
	err := f.agree(t)
	if err == nil || !strings.Contains(err.Error(), "left out core 1, resident for domain 6") ||
		strings.Contains(err.Error(), "domain 5") {
		t.Fatalf("want core 1 left out for domain 6 only, got %v", err)
	}
}
