package check

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/tyche-sim/tyche/internal/codec"
	"github.com/tyche-sim/tyche/internal/trace"
)

// buildCleanIntervals produces a two-interval clean digest chain the
// way a node would: a sharded checker consumes events, each stable
// merge becomes one digest.
func buildCleanIntervals(t testing.TB) [][]byte {
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
		wires = append(wires, db.Build(rep))
	}
	emit(trace.KBoot, 0, 0, 0, 0, 2)
	emit(trace.KOpBegin, 1, trace.OpShare, 1, 0, 0)
	emit(trace.KShare, 1, 0, 7, 0x1000, 4096)
	emit(trace.KOpEnd, 1, trace.OpShare, 1, 0, 0)
	ship()
	emit(trace.KOpBegin, 1, trace.OpRevoke, 2, 0, 0)
	emit(trace.KRevoke, 1, 0, 7, 0, 0)
	emit(trace.KShootdown, 0, 3, 0, 0x1000, 4096)
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

// TestDigestTamperDetected: a byte flipped in an audit record or in
// the hash fails the digest's own hash.
func TestDigestTamperDetected(t *testing.T) {
	wires := buildCleanIntervals(t)
	d, err := DecodeDigest(wires[0])
	if err != nil || len(d.Audit) == 0 {
		t.Fatalf("clean digest: %v, %d audit events", err, len(d.Audit))
	}
	// The first audit record follows the version, node, interval,
	// violations and audit count.
	at := hashLen + 1 + 8 + len(d.Node) + 8 + 8 + 8
	for _, v := range d.Violations {
		at += 8 + len(v)
	}
	if got := binary.LittleEndian.Uint64(wires[0][at:]); got != d.Audit[0].Seq {
		t.Fatalf("audit record offset %d reads seq %d, want %d", at, got, d.Audit[0].Seq)
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

// rehash gives body a correct hash prefix: the hash then vouches only
// for the bytes, so what refuses them is the decoder.
func rehash(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append([]byte(hex.EncodeToString(sum[:])), body...)
}

// TestDigestRejectsReencodedBytes: a body that is not the one canonical
// encoding of a digest is refused with the codec's typed error even when
// its hash is correct, so no two byte strings verify as one digest.
func TestDigestRejectsReencodedBytes(t *testing.T) {
	body := buildCleanIntervals(t)[0][hashLen:]
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), body...)) }
	for _, c := range []struct {
		name string
		body []byte
		want error
	}{
		{"trailing byte", append(append([]byte(nil), body...), 0), codec.ErrTrailing},
		{"over-long length", edit(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[1:], uint64(len(b))); return b }), codec.ErrLength},
		{"version 2", edit(func(b []byte) []byte { b[0] = 2; return b }), codec.ErrVersion},
	} {
		rv := NewRemoteVerifier("node-a")
		if err := rv.Consume(rehash(c.body)); !errors.Is(err, c.want) {
			t.Errorf("%s: Consume = %v, want %v", c.name, err, c.want)
		}
		if flags := rv.Flags(); len(flags) != 1 || !strings.Contains(flags[0], "undecodable") {
			t.Errorf("%s: flags = %q, want one undecodable digest", c.name, flags)
		}
	}
	if err := NewRemoteVerifier("node-a").Consume(rehash(body)); err != nil {
		t.Fatalf("the canonical body itself: %v", err)
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
	raw := db.Build(rep)
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
	raw := db.Build(rep)
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
	raw := db.Build(MergeReport{Merged: true, Events: evs})
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

// FuzzDigestDecode treats its input as a digest body and gives it a
// correct hash, so what stands between hostile bytes and the verifier is
// the decoder: a body it accepts re-encodes to the same bytes, those
// bytes decode to the same digest, and RemoteVerifier.Consume takes any
// byte string — hashed or not — without panicking.
func FuzzDigestDecode(f *testing.F) {
	for _, raw := range buildCleanIntervals(f) {
		f.Add(raw[hashLen:])
	}
	lying := Digest{Node: "node-c", Interval: 0, Violations: []string{"dead domain 5 used"},
		Audit: []trace.Event{{Seq: 2, Core: -1, Kind: trace.KKill, Domain: 5}}, AuditDropped: 3}
	f.Add(lying.encode()[hashLen:])
	f.Add([]byte{digestVersion})
	f.Fuzz(func(t *testing.T, body []byte) {
		raw := rehash(body)
		if d, err := DecodeDigest(raw); err == nil {
			again := d.encode()
			if !bytes.Equal(again, raw) {
				t.Fatalf("accepted body re-encodes differently:\n got %x\nwant %x", again, raw)
			}
			if d2, err := DecodeDigest(again); err != nil || !reflect.DeepEqual(d2, d) {
				t.Fatalf("re-encoded digest decodes to %+v, %v; want %+v", d2, err, d)
			}
		}
		for _, in := range [][]byte{raw, body} {
			v := NewRemoteVerifier("node-a")
			_ = v.Consume(in)
			v.Finalize()
		}
	})
}
