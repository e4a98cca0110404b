package check

import (
	"strings"
	"testing"

	"github.com/tyche-sim/tyche/internal/trace"
)

// buildCleanIntervals produces a two-interval clean digest chain the
// way a node would: a sharded checker consumes events, each stable
// merge becomes one digest.
func buildCleanIntervals(t *testing.T) [][]byte {
	t.Helper()
	sh := NewShardedN(2)
	db := NewDigestBuilder("node-a")
	var wires [][]byte
	seq := uint64(0)
	emit := func(k trace.Kind, dom, aux, node, addr, size uint64) {
		seq++
		sh.ShardEvent(0, trace.Event{Seq: seq, Core: -1, Kind: k,
			Domain: dom, Aux: aux, Node: node, Addr: addr, Size: size})
	}
	ship := func() {
		rep := sh.Merge()
		if !rep.Merged {
			t.Fatal("merge deferred in synchronous test")
		}
		raw, err := db.Build(rep)
		if err != nil {
			t.Fatal(err)
		}
		wires = append(wires, raw)
	}
	emit(trace.KBoot, 0, 0, 0, 0, 2)
	emit(trace.KOpBegin, 1, trace.OpShare, 1, 0, 0)
	emit(trace.KShare, 1, 0, 7, 0x1000, 4096)
	emit(trace.KOpEnd, 1, trace.OpShare, 1, 0, 0)
	ship()
	emit(trace.KOpBegin, 1, trace.OpRevoke, 2, 0, 0)
	emit(trace.KRevoke, 1, 0, 7, 0, 0)
	emit(trace.KShootdown, 0, 0, 0, 0x1000, 4096)
	emit(trace.KShootdownAck, 0, 0, 0, 0x1000, 4096)
	emit(trace.KShootdownAck, 0, 1, 0, 0x1000, 4096)
	emit(trace.KOpEnd, 1, trace.OpRevoke, 2, 0, 0)
	ship()
	return wires
}

// TestDigestChainCleanVerifies: an authentic, continuous chain from a
// clean run raises no flags.
func TestDigestChainCleanVerifies(t *testing.T) {
	wires := buildCleanIntervals(t)
	rv := NewRemoteVerifier("node-a")
	for _, raw := range wires {
		if err := rv.Consume(raw); err != nil {
			t.Fatalf("clean digest rejected: %v", err)
		}
	}
	if flags := rv.Finalize(); len(flags) != 0 {
		t.Fatalf("clean chain flagged: %q", flags)
	}
	if rv.Digests() != 2 {
		t.Fatalf("digests = %d, want 2", rv.Digests())
	}
}

// TestDigestTamperDetected: a byte flipped in the audit stream or in
// the hash fails the digest's own hash.
func TestDigestTamperDetected(t *testing.T) {
	wires := buildCleanIntervals(t)
	at := strings.Index(string(wires[0]), `"Seq":`) + len(`"Seq":`)
	if at < len(`"Seq":`) {
		t.Fatal("no audit event in wire encoding")
	}
	for name, i := range map[string]int{"audit": at, "hash": 0} {
		tampered := append([]byte(nil), wires[0]...)
		tampered[i] ^= 0x01
		rv := NewRemoteVerifier("node-a")
		if err := rv.Consume(tampered); err == nil {
			t.Fatalf("%s: tampered digest accepted", name)
		}
		if flags := rv.Flags(); len(flags) != 1 || !strings.Contains(flags[0], "hash mismatch") {
			t.Fatalf("%s: flags = %q, want one hash mismatch", name, flags)
		}
	}
}

// TestDigestRejectsReencodedBytes: bytes that decode to the same
// digest but are not the bytes the node hashed — a key in another case,
// extra whitespace — are refused, because the hash covers the body as
// it arrived, not a re-encoding of what it decodes to.
func TestDigestRejectsReencodedBytes(t *testing.T) {
	wires := buildCleanIntervals(t)
	s := string(wires[0])
	if !strings.Contains(s, `"interval"`) {
		t.Fatal("no interval key in wire encoding")
	}
	s = strings.Replace(s, `"interval"`, `"INTERVAL"`, 1)
	s = strings.Replace(s, "{", "{ ", 1)
	rv := NewRemoteVerifier("node-a")
	if err := rv.Consume([]byte(s)); err == nil {
		t.Fatal("re-encoded digest accepted")
	}
	if flags := rv.Flags(); len(flags) != 1 || !strings.Contains(flags[0], "hash mismatch") {
		t.Fatalf("flags = %q, want one hash mismatch", flags)
	}
}

// TestDigestChainGapDetected: dropping an interval breaks the chain
// even though the later digest is authentic in isolation.
func TestDigestChainGapDetected(t *testing.T) {
	wires := buildCleanIntervals(t)
	rv := NewRemoteVerifier("node-a")
	if err := rv.Consume(wires[1]); err == nil {
		t.Fatal("chain gap accepted")
	}
	if flags := rv.Flags(); len(flags) == 0 || !strings.Contains(flags[0], "chain broken") {
		t.Fatalf("gap flags = %q", flags)
	}
}

// TestRemoteVerifierFlagsReportedViolation: a node that honestly
// reports a violation gets it surfaced as a flag, with no divergence
// flag (replay agrees).
func TestRemoteVerifierFlagsReportedViolation(t *testing.T) {
	sh := NewShardedN(2)
	db := NewDigestBuilder("node-b")
	seq := uint64(0)
	emit := func(k trace.Kind, dom, aux, node, addr, size uint64) {
		seq++
		sh.ShardEvent(0, trace.Event{Seq: seq, Core: -1, Kind: k,
			Domain: dom, Aux: aux, Node: node, Addr: addr, Size: size})
	}
	emit(trace.KBoot, 0, 0, 0, 0, 2)
	emit(trace.KKill, 5, 0, 0, 0, 0)
	emit(trace.KShare, 5, 0, 7, 0x1000, 4096) // dead-domain use
	rep := sh.Merge()
	if len(rep.NewViolations) == 0 {
		t.Fatal("merge missed the dead-domain share")
	}
	raw, err := db.Build(rep)
	if err != nil {
		t.Fatal(err)
	}
	rv := NewRemoteVerifier("node-b")
	if err := rv.Consume(raw); err != nil {
		t.Fatal(err)
	}
	flags := rv.Finalize()
	if len(flags) != 1 || !strings.Contains(flags[0], "reported violation") {
		t.Fatalf("flags = %q, want exactly the reported violation", flags)
	}
}

// TestRemoteVerifierFlagsDivergence: a digest whose audit stream
// contains a violation the node did NOT report (a lying or broken
// checker) must be flagged as divergence by the verifier's replay.
func TestRemoteVerifierFlagsDivergence(t *testing.T) {
	db := NewDigestBuilder("node-c")
	// Hand-craft the lying merge report: the audit stream shows a share
	// by a killed domain, but NewViolations claims the interval was
	// clean.
	rep := MergeReport{
		Merged: true,
		Events: []trace.Event{
			{Seq: 1, Core: -1, Kind: trace.KBoot, Size: 2},
			{Seq: 2, Core: -1, Kind: trace.KKill, Domain: 5},
			{Seq: 3, Core: -1, Kind: trace.KShare, Domain: 5, Node: 7, Addr: 0x1000, Size: 4096},
		},
	}
	raw, err := db.Build(rep)
	if err != nil {
		t.Fatal(err)
	}
	rv := NewRemoteVerifier("node-c")
	if err := rv.Consume(raw); err != nil {
		t.Fatal(err)
	}
	flags := rv.Finalize()
	if len(flags) == 0 {
		t.Fatal("divergence not flagged")
	}
	found := false
	for _, f := range flags {
		if strings.Contains(f, "diverges") && strings.Contains(f, "dead domain 5") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no divergence flag naming the violation: %q", flags)
	}
}

// TestDigestAuditTruncationDisablesReplay: past MaxAuditEvents the
// digest reports the overflow and the verifier stops judging
// divergence (but keeps chain and verdict checking).
func TestDigestAuditTruncationDisablesReplay(t *testing.T) {
	db := NewDigestBuilder("node-d")
	evs := make([]trace.Event, MaxAuditEvents+10)
	for i := range evs {
		evs[i] = trace.Event{Seq: uint64(i + 1), Core: -1, Kind: trace.KShare, Domain: 1, Node: 7}
	}
	raw, err := db.Build(MergeReport{Merged: true, Events: evs})
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeDigest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if d.AuditDropped != 10 || len(d.Audit) != MaxAuditEvents {
		t.Fatalf("audit cap: dropped=%d len=%d", d.AuditDropped, len(d.Audit))
	}
	rv := NewRemoteVerifier("node-d")
	if err := rv.Consume(raw); err != nil {
		t.Fatal(err)
	}
	flags := rv.Finalize()
	foundTrunc := false
	for _, f := range flags {
		if strings.Contains(f, "truncated") {
			foundTrunc = true
		}
		if strings.Contains(f, "diverges") {
			t.Fatalf("divergence judged on a truncated stream: %q", f)
		}
	}
	if !foundTrunc {
		t.Fatalf("truncation not flagged: %q", flags)
	}
}
