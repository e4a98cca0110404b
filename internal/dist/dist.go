// Package dist implements attested cross-machine channels — the §4.2
// extensions "providing RDMA support for Tyche-based TEEs running on
// separate machines" and "extend attestation to multi-domain
// deployments with the insurance that all communication paths are
// secured and attested".
//
// Two trust domains on two simulated machines connect over an untrusted
// wire: each side first verifies the other's full chain (TPM quote →
// monitor identity → domain report → measurement policy), then runs an
// X25519 handshake whose public keys are bound to the attested reports
// (report data), and derives AES-CTR + HMAC-SHA256 session keys. Data
// moves RDMA-style: the sending domain's NIC DMA-reads the ciphertext
// from the domain's registered buffer and the receiving NIC DMA-writes
// into the peer's — every bus access IOMMU-checked, so only domains
// holding their NIC and buffer can use the path, and neither provider
// OS ever observes plaintext.
package dist

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/tyche-sim/tyche/internal/attest"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/fault"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
)

// Errors surfaced by connection setup and transport.
var (
	ErrPeerUntrusted = errors.New("dist: peer attestation rejected")
	ErrTampered      = errors.New("dist: message authentication failed")
	ErrTooLarge      = errors.New("dist: message exceeds the registered buffer")
	// ErrLinkLost means the frame never arrived (dropped or delayed in
	// flight). Unlike ErrTampered it is not an integrity failure: the
	// sender's sequence number is not consumed, so the caller may retry
	// the same payload over the same channel.
	ErrLinkLost = errors.New("dist: frame lost in flight")
)

// Endpoint is one side of a channel: a trust domain on a machine, with
// a registered buffer and a NIC it holds (RDMA-style: the domain owns
// its queue pair; the host OS is not on the data path).
type Endpoint struct {
	Monitor *core.Monitor
	TPM     *tpm.TPM
	Domain  core.DomainID
	// Buffer is the registered memory region (must be the domain's).
	Buffer phys.Region
	// NIC is the device the domain holds with DMA rights.
	NIC phys.DeviceID

	// Policy the endpoint applies to its peer.
	PeerVerifier *attest.Verifier
	// PeerMeasurement optionally pins the peer domain's identity.
	PeerMeasurement *tpm.Digest

	priv *ecdh.PrivateKey
}

// Wire is the untrusted interconnect between two machines. Everything
// that crosses it is observable (and corruptible) by the adversary; the
// Sniff and Corrupt hooks let tests and experiments play that role, and
// Arm installs a deterministic schedule of link faults (drop, duplicate,
// reorder) in the internal/fault grammar.
type Wire struct {
	frames [][]byte
	// Taps receives a copy of every frame (the adversary's monitor
	// port).
	Taps [][]byte
	// Corrupt, when set, may rewrite a frame in flight.
	Corrupt func([]byte) []byte

	// armed link faults count push events, mirroring the pure-counter
	// determinism of fault.Injector: same schedule, same frame stream,
	// same failures, forever.
	armed []*linkArmed
	held  [][]byte
	// Dropped, Duped and Reordered count fired link faults.
	Dropped   uint64
	Duped     uint64
	Reordered uint64
}

// linkArmed is one armed link fault with its event counters.
type linkArmed struct {
	f    fault.Fault
	seen uint64
	done uint64
}

func (a *linkArmed) count() uint64 {
	if a.f.Count == 0 {
		return 1
	}
	return a.f.Count
}

// Arm installs the link-kinded faults of a schedule (non-link kinds are
// ignored, so one FromSeed schedule can drive machine and wire alike).
func (w *Wire) Arm(faults []fault.Fault) {
	for _, f := range faults {
		if f.Kind.Link() {
			w.armed = append(w.armed, &linkArmed{f: f})
		}
	}
}

// linkFault consumes one push event against the armed schedule. When
// several faults match the same frame, drop dominates dup dominates
// reorder — a discarded frame cannot also be replayed.
func (w *Wire) linkFault() (fault.Kind, bool) {
	var fired *linkArmed
	rank := func(k fault.Kind) int {
		switch k {
		case fault.LinkDrop:
			return 0
		case fault.LinkDup:
			return 1
		default:
			return 2
		}
	}
	for _, a := range w.armed {
		a.seen++
		if a.done >= a.count() || a.seen <= a.f.After {
			continue
		}
		if fired == nil || rank(a.f.Kind) < rank(fired.f.Kind) {
			fired = a
		}
	}
	if fired == nil {
		return 0, false
	}
	fired.done++
	return fired.f.Kind, true
}

func (w *Wire) push(frame []byte) {
	cp := append([]byte(nil), frame...)
	w.Taps = append(w.Taps, append([]byte(nil), cp...))
	if w.Corrupt != nil {
		cp = w.Corrupt(cp)
	}
	k, fired := w.linkFault()
	if !fired {
		w.frames = append(w.frames, cp)
		w.flushHeld()
		return
	}
	switch k {
	case fault.LinkDrop:
		// The frame vanishes; the sender will find the wire empty.
		w.Dropped++
	case fault.LinkDup:
		// Byte-exact replay: the second copy arrives behind the first
		// and must die on the receiver's sequence check.
		w.Duped++
		w.frames = append(w.frames, cp, append([]byte(nil), cp...))
		w.flushHeld()
	case fault.LinkReorder:
		// Held back: released behind the next frame that passes, so the
		// pair arrives out of order.
		w.Reordered++
		w.held = append(w.held, cp)
	}
}

// flushHeld releases reorder-held frames behind the frame just queued.
func (w *Wire) flushHeld() {
	w.frames = append(w.frames, w.held...)
	w.held = nil
}

func (w *Wire) pop() ([]byte, bool) {
	if len(w.frames) == 0 {
		return nil, false
	}
	f := w.frames[0]
	w.frames = w.frames[1:]
	return f, true
}

// Conn is an established attested channel.
type Conn struct {
	a, b *Endpoint
	wire *Wire

	sendKey [32]byte // AES-CTR key material + HMAC key derived per dir
	seqAB   uint64
	seqBA   uint64
}

// handshakeEvidence is what each side sends during setup: its boot
// quote, its domain report (with the X25519 key bound via report data),
// and the key itself.
type handshakeEvidence struct {
	Quote  *tpm.Quote
	Report *core.Report
	Pub    []byte
}

// gatherEvidence produces an endpoint's evidence for the given nonces.
func (e *Endpoint) gatherEvidence(bootNonce, domNonce []byte) (*handshakeEvidence, error) {
	x := ecdh.X25519()
	priv, err := x.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	e.priv = priv
	pub := priv.PublicKey().Bytes()
	if err := e.Monitor.SetReportData(e.Domain, e.Domain, tpm.Measure(pub)); err != nil {
		return nil, err
	}
	quote, err := e.Monitor.BootQuote(bootNonce)
	if err != nil {
		return nil, err
	}
	report, err := e.Monitor.Attest(e.Domain, domNonce)
	if err != nil {
		return nil, err
	}
	return &handshakeEvidence{Quote: quote, Report: report, Pub: pub}, nil
}

// verifyPeer applies the endpoint's policy to the peer's evidence.
func (e *Endpoint) verifyPeer(ev *handshakeEvidence, bootNonce, domNonce []byte) error {
	sess, err := e.PeerVerifier.NewSession(ev.Quote, bootNonce)
	if err != nil {
		return fmt.Errorf("%w: boot: %v", ErrPeerUntrusted, err)
	}
	if err := sess.VerifyDomain(ev.Report, domNonce); err != nil {
		return fmt.Errorf("%w: report: %v", ErrPeerUntrusted, err)
	}
	if err := attest.RequireSealed(ev.Report); err != nil {
		return fmt.Errorf("%w: %v", ErrPeerUntrusted, err)
	}
	if e.PeerMeasurement != nil {
		if err := attest.RequireMeasurement(ev.Report, *e.PeerMeasurement); err != nil {
			return fmt.Errorf("%w: %v", ErrPeerUntrusted, err)
		}
	}
	if tpm.Measure(ev.Pub) != ev.Report.ReportData {
		return fmt.Errorf("%w: key not bound to attestation", ErrPeerUntrusted)
	}
	return nil
}

// Connect establishes an attested channel between a and b over wire:
// mutual attestation, bound X25519 handshake, session key derivation.
func Connect(a, b *Endpoint, wire *Wire) (*Conn, error) {
	bootNonce := []byte("dist-boot")
	domNonce := []byte("dist-domain")
	evA, err := a.gatherEvidence(bootNonce, domNonce)
	if err != nil {
		return nil, err
	}
	evB, err := b.gatherEvidence(bootNonce, domNonce)
	if err != nil {
		return nil, err
	}
	// Evidence crosses the untrusted wire (it is public; tampering
	// breaks signatures and is caught by verification).
	if err := a.verifyPeer(evB, bootNonce, domNonce); err != nil {
		return nil, err
	}
	if err := b.verifyPeer(evA, bootNonce, domNonce); err != nil {
		return nil, err
	}
	x := ecdh.X25519()
	pubB, err := x.NewPublicKey(evB.Pub)
	if err != nil {
		return nil, err
	}
	secretA, err := a.priv.ECDH(pubB)
	if err != nil {
		return nil, err
	}
	conn := &Conn{a: a, b: b, wire: wire}
	conn.sendKey = sha256.Sum256(secretA)
	return conn, nil
}

// frame layout: 8-byte seq | 8-byte length | ciphertext | 32-byte tag.
func (c *Conn) seal(seq uint64, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(c.sendKey[:16])
	if err != nil {
		return nil, err
	}
	var iv [16]byte
	binary.LittleEndian.PutUint64(iv[:8], seq)
	ct := make([]byte, len(plaintext))
	cipher.NewCTR(block, iv[:]).XORKeyStream(ct, plaintext)
	frame := make([]byte, 16, 16+len(ct)+32)
	binary.LittleEndian.PutUint64(frame[:8], seq)
	binary.LittleEndian.PutUint64(frame[8:16], uint64(len(ct)))
	frame = append(frame, ct...)
	mac := hmac.New(sha256.New, c.sendKey[16:])
	mac.Write(frame)
	return mac.Sum(frame), nil
}

func (c *Conn) open(frame []byte, wantSeq uint64) ([]byte, error) {
	if len(frame) < 48 {
		return nil, ErrTampered
	}
	body, tag := frame[:len(frame)-32], frame[len(frame)-32:]
	mac := hmac.New(sha256.New, c.sendKey[16:])
	mac.Write(body)
	if !hmac.Equal(mac.Sum(nil), tag) {
		return nil, ErrTampered
	}
	seq := binary.LittleEndian.Uint64(body[:8])
	if seq != wantSeq {
		return nil, fmt.Errorf("%w: replayed or reordered (seq %d, want %d)", ErrTampered, seq, wantSeq)
	}
	n := binary.LittleEndian.Uint64(body[8:16])
	if n != uint64(len(body)-16) {
		return nil, ErrTampered
	}
	block, err := aes.NewCipher(c.sendKey[:16])
	if err != nil {
		return nil, err
	}
	var iv [16]byte
	binary.LittleEndian.PutUint64(iv[:8], seq)
	pt := make([]byte, n)
	cipher.NewCTR(block, iv[:]).XORKeyStream(pt, body[16:])
	return pt, nil
}

// Send moves plaintext from endpoint `from`'s buffer to the peer's,
// RDMA-style: ciphertext is staged in the sender's registered buffer,
// the sender's NIC DMA-reads it onto the wire, the receiver's NIC
// DMA-writes it into the peer buffer, and the receiving domain opens
// it. Returns the plaintext as observed by the receiver.
func (c *Conn) Send(from *Endpoint, plaintext []byte) ([]byte, error) {
	to := c.b
	var seq *uint64
	switch from {
	case c.a:
		to, seq = c.b, &c.seqAB
	case c.b:
		to, seq = c.a, &c.seqBA
	default:
		return nil, fmt.Errorf("dist: endpoint not part of this connection")
	}
	frame, err := c.seal(*seq, plaintext)
	if err != nil {
		return nil, err
	}
	if uint64(len(frame)) > from.Buffer.Size() || uint64(len(frame)) > to.Buffer.Size() {
		return nil, ErrTooLarge
	}
	out, err := from.transmit(frame)
	if err != nil {
		return nil, err
	}
	c.wire.push(out)
	rx, ok := c.wire.pop()
	if !ok {
		return nil, ErrLinkLost
	}
	got, err := to.receive(rx)
	if err != nil {
		return nil, err
	}
	pt, err := c.open(got, *seq)
	if err != nil {
		return nil, err
	}
	*seq++
	return pt, nil
}

// transmit stages frame in the endpoint's registered buffer (the sending
// domain writes it — capability-checked) and has the NIC DMA-read it
// back out (IOMMU-checked). Every channel of a node runs over the same
// buffer and NIC, so the two steps hold the NIC's queue: a frame staged
// by another channel cannot land between them. transmit and receive
// never hold two NICs at once, so concurrent transfers in opposite
// directions cannot deadlock.
func (e *Endpoint) transmit(frame []byte) ([]byte, error) {
	nic := e.Monitor.Machine().Device(e.NIC)
	nic.Acquire()
	defer nic.Release()
	if err := e.Monitor.CopyInto(e.Domain, e.Buffer.Start, frame); err != nil {
		return nil, err
	}
	out := make([]byte, len(frame))
	if err := nic.DMARead(e.Buffer.Start, out); err != nil {
		return nil, fmt.Errorf("dist: tx dma: %w", err)
	}
	return out, nil
}

// receive has the NIC DMA-write rx into the endpoint's registered
// buffer and raise an interrupt for the owning domain, which then reads
// the frame back — under the NIC's queue, like transmit.
func (e *Endpoint) receive(rx []byte) ([]byte, error) {
	nic := e.Monitor.Machine().Device(e.NIC)
	nic.Acquire()
	defer nic.Release()
	if err := nic.DMAWrite(e.Buffer.Start, rx); err != nil {
		return nil, fmt.Errorf("dist: rx dma: %w", err)
	}
	nic.RaiseIRQ(1)
	return e.Monitor.CopyFrom(e.Domain, e.Buffer.Start, uint64(len(rx)))
}

// WireCarried reports whether the adversary's tap ever saw `needle` in
// the clear.
func (w *Wire) WireCarried(needle []byte) bool {
	for _, f := range w.Taps {
		if bytes.Contains(f, needle) {
			return true
		}
	}
	return false
}
