package check

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"github.com/tyche-sim/tyche/internal/codec"
	"github.com/tyche-sim/tyche/internal/trace"
)

// Trace digests: the fleet-facing output of the online checker. Each
// merge becomes one Digest — the interval's violation verdicts
// and its exact structural events as an audit stream — hash-chained to
// its predecessor and shipped over an attested channel (internal/dist)
// to a RemoteVerifier. The verifier checks the hash over the bytes that
// arrived, re-derives the chain, replays the audit stream through its
// own engine, and flags both reported violations and
// divergence: a node whose checker says "clean" while the replay finds
// a violation is lying or broken, and either way untrusted.
//
// Wire encoding: the body's SHA-256 as lowercase hex, then the body —
// the Digest in package codec's canonical encoding, audit events as
// fixed-width records. The hash covers every body byte as shipped, and
// the decoder accepts exactly one body per digest, so no two byte
// strings verify as one digest.

// MaxAuditEvents bounds one digest's audit stream: a Checker keeps at
// most this many structural events between merges and only counts the
// rest (MergeReport.Dropped). A digest reports the overflow in
// AuditDropped — the verifier then skips divergence replay for the
// chain (reported verdicts still count) instead of silently judging a
// truncated stream.
const MaxAuditEvents = 4096

// hashLen is the length of the hex hash that prefixes a digest body.
const hashLen = 2 * sha256.Size

// ErrDigestHash reports a digest whose hash does not match its body.
var ErrDigestHash = errors.New("check: digest hash does not match its body")

// Digest is one interval's attestable summary of a node's trace.
type Digest struct {
	// Node names the emitting machine in the fleet.
	Node string
	// Interval is this digest's position in the node's chain (0-based).
	Interval uint64
	// Violations are the messages of the violations no earlier digest
	// carried.
	Violations []string
	// Audit is the interval's structural event stream (seq order).
	Audit []trace.Event
	// AuditDropped counts audit events elided past MaxAuditEvents.
	AuditDropped uint64
	// PrevHash chains to the previous digest's hash ("" for interval 0).
	PrevHash string
}

// digestVersion leads a digest body.
const digestVersion = 1

// eventSize is one fixed-width audit record, trace.Event's nine fields.
const eventSize = 8 + 8 + 4 + 1 + 5*8

// encode returns the digest's wire encoding: the body's hash, then the
// body.
func (d *Digest) encode() []byte {
	w := codec.Writer{Buf: make([]byte, hashLen, hashLen+256+len(d.Audit)*eventSize)}
	w.U8(digestVersion)
	w.Str(d.Node)
	w.U64(d.Interval)
	w.U64(uint64(len(d.Violations)))
	for _, v := range d.Violations {
		w.Str(v)
	}
	w.U64(uint64(len(d.Audit)))
	for _, e := range d.Audit {
		w.U64(e.Seq)
		w.U64(e.Cycle)
		w.U32(uint32(e.Core))
		w.U8(uint8(e.Kind))
		w.U64(e.Domain)
		w.U64(e.Aux)
		w.U64(e.Node)
		w.U64(e.Addr)
		w.U64(e.Size)
	}
	w.U64(d.AuditDropped)
	w.Str(d.PrevHash)
	sum := sha256.Sum256(w.Buf[hashLen:])
	hex.Encode(w.Buf, sum[:])
	return w.Buf
}

// DecodeDigest checks a digest's hash over its body exactly as the
// bytes arrived and only then decodes the body. A hash that does not
// match is ErrDigestHash; a body that is not encode's is one of package
// codec's errors.
func DecodeDigest(raw []byte) (Digest, error) {
	if len(raw) < hashLen {
		return Digest{}, ErrDigestHash
	}
	var want [hashLen]byte
	sum := sha256.Sum256(raw[hashLen:])
	hex.Encode(want[:], sum[:])
	if !bytes.Equal(raw[:hashLen], want[:]) {
		return Digest{}, ErrDigestHash
	}
	r := codec.NewReader(raw[hashLen:], digestVersion)
	d := Digest{Node: r.Str(), Interval: r.U64(), Violations: codec.List(r, 8, r.Str)}
	d.Audit = codec.List(r, eventSize, func() trace.Event {
		return trace.Event{Seq: r.U64(), Cycle: r.U64(), Core: int32(r.U32()), Kind: trace.Kind(r.U8()),
			Domain: r.U64(), Aux: r.U64(), Node: r.U64(), Addr: r.U64(), Size: r.U64()}
	})
	d.AuditDropped, d.PrevHash = r.U64(), r.Str()
	if err := r.Close(); err != nil {
		return Digest{}, fmt.Errorf("check: digest: %w", err)
	}
	return d, nil
}

// MergeReport is one interval of a Checker's online check, as Merge or
// End hands it over.
type MergeReport struct {
	// Events are the interval's structural events in sequence order,
	// at most MaxAuditEvents of them — the digest's audit stream. The
	// slice is lent: it is the checker's
	// own buffer, valid until the next Merge or End on the same checker,
	// which refill it. A caller that keeps the events past that copies
	// them.
	Events []trace.Event
	// Dropped counts the interval's structural events past
	// MaxAuditEvents, which Events does not hold.
	Dropped uint64
	// NewViolations are the violations no earlier report carried.
	NewViolations []Violation
}

// DigestBuilder turns a node's merge reports into its hash chain.
type DigestBuilder struct {
	node     string
	interval uint64
	prevHash string
}

// NewDigestBuilder starts a chain for the named node.
func NewDigestBuilder(node string) *DigestBuilder {
	return &DigestBuilder{node: node}
}

// Build produces the wire encoding of the next digest in the chain
// from one merge report.
func (b *DigestBuilder) Build(rep MergeReport) []byte {
	d := Digest{
		Node:         b.node,
		Interval:     b.interval,
		Audit:        rep.Events,
		AuditDropped: rep.Dropped,
		PrevHash:     b.prevHash,
	}
	for _, v := range rep.NewViolations {
		d.Violations = append(d.Violations, v.Msg)
	}
	raw := d.encode()
	b.interval++
	b.prevHash = string(raw[:hashLen])
	return raw
}

// RemoteVerifier consumes a node's digest chain on another machine:
// it checks chain integrity (hashes, links, interval continuity),
// records the node's own verdicts, and independently replays the audit
// stream through its own engine to catch divergence. One verifier per
// watched node.
type RemoteVerifier struct {
	node      string
	prevHash  string
	next      uint64
	eng       *engine
	replayed  int // engine violations already compared
	reported  map[string]int
	flags     []string
	truncated bool
	digests   uint64
}

// NewRemoteVerifier watches the named node's chain from interval 0.
func NewRemoteVerifier(node string) *RemoteVerifier {
	return &RemoteVerifier{node: node, eng: newEngine(), reported: make(map[string]int)}
}

func (v *RemoteVerifier) flag(format string, args ...any) {
	v.flags = append(v.flags, fmt.Sprintf(format, args...))
}

// Consume verifies one received digest (its wire encoding, exactly as
// the node shipped it). A returned error means the chain itself is
// unusable — mis-hashed, undecodable, or discontinuous; verdict flags
// accumulate in Flags either way.
func (v *RemoteVerifier) Consume(raw []byte) error {
	d, err := DecodeDigest(raw)
	if errors.Is(err, ErrDigestHash) {
		v.flag("node %s: digest %d hash mismatch (tampered or corrupt)", v.node, v.next)
		return fmt.Errorf("check: digest %d from %s fails its hash", v.next, v.node)
	}
	if err != nil {
		v.flag("node %s: undecodable digest: %v", v.node, err)
		return fmt.Errorf("check: undecodable digest from %s: %w", v.node, err)
	}
	if d.Node != v.node || d.Interval != v.next || d.PrevHash != v.prevHash {
		v.flag("node %s: digest chain broken at interval %d of %q (want %d, prev %.8s vs %.8s)",
			v.node, d.Interval, d.Node, v.next, d.PrevHash, v.prevHash)
		return fmt.Errorf("check: digest chain from %s broken at interval %d", v.node, d.Interval)
	}
	v.prevHash = string(raw[:hashLen])
	v.next++
	v.digests++
	if d.AuditDropped > 0 {
		v.truncated = true
		v.flag("node %s: digest %d truncated %d audit events (divergence replay disabled)",
			v.node, d.Interval, d.AuditDropped)
	}
	for _, msg := range d.Violations {
		v.reported[msg]++
		v.flag("node %s reported violation: %s", v.node, msg)
	}
	for _, ev := range d.Audit {
		v.eng.step(ev)
	}
	v.compare()
	return nil
}

// compare flags engine violations the node never reported — the
// divergence signal. Skipped once the audit stream is truncated.
func (v *RemoteVerifier) compare() {
	if v.truncated {
		v.replayed = len(v.eng.violations)
		return
	}
	for _, viol := range v.eng.violations[v.replayed:] {
		if v.reported[viol.Msg] > 0 {
			v.reported[viol.Msg]--
			continue
		}
		v.flag("node %s diverges: replay found unreported violation: %s", v.node, viol)
	}
	v.replayed = len(v.eng.violations)
}

// Finalize ends the replay (end-of-trace validation over the audit
// stream) and returns the accumulated flags. An empty result means the
// node's chain was continuous, every digest authentic, and the replay
// agreed with every verdict.
func (v *RemoteVerifier) Finalize() []string {
	v.eng.end()
	v.compare()
	return v.Flags()
}

// Flags returns the verdicts accumulated so far.
func (v *RemoteVerifier) Flags() []string {
	return append([]string(nil), v.flags...)
}

// Digests returns how many chain-valid digests were consumed.
func (v *RemoteVerifier) Digests() uint64 { return v.digests }

// Head returns the hash of the last chain-valid digest consumed ("" before
// the first): two runs that shipped the same chain end on the same head.
func (v *RemoteVerifier) Head() string { return v.prevHash }
