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
// (report data), and derives AES-CTR + HMAC-SHA256 session keys. Each
// verifier draws the nonce its peer's quote and report must carry, so
// evidence recorded from one handshake is refused by every other — one
// handshake may vouch for a channel that is kept for a long time.
//
// Each direction of a channel has its own cipher key, MAC key and
// sequence counter, derived from the ECDH secret under a direction
// label: the counter is the CTR IV, so two directions under one key
// would encrypt their first frames with one keystream, and a frame
// captured one way would authenticate the other way.
//
// Data moves RDMA-style: the sending domain's NIC DMA-reads the
// ciphertext from the domain's registered buffer and the receiving NIC
// DMA-writes into the peer's — every bus access IOMMU-checked, so only
// domains holding their NIC and buffer can use the path, and neither
// provider OS ever observes plaintext.
//
// The Wire between the machines belongs to the adversary: Sniff shows
// it every frame, Corrupt lets it rewrite one, Arm schedules link
// faults. A wire nobody sniffs keeps no frame once it is delivered.
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
	"hash"

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
	// the same payload over the same channel. Only the same payload: the
	// lost frame reached the wire, and a different plaintext under its
	// sequence number would reuse its keystream. A caller whose next
	// payload differs opens a new channel instead.
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
	// Sniff, when set, is shown every frame entering the wire (the
	// adversary's monitor port). The slice is the sender's and is valid
	// for the call only.
	Sniff func([]byte)
	// Taps is what Tap's sniffer recorded: a copy of every frame since.
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

// Tap installs the recording sniffer: from here on Taps keeps a copy of
// every frame and WireCarried searches them.
func (w *Wire) Tap() {
	w.Sniff = func(frame []byte) {
		w.Taps = append(w.Taps, append([]byte(nil), frame...))
	}
}

func (w *Wire) push(frame []byte) {
	if w.Sniff != nil {
		w.Sniff(frame)
	}
	cp := append([]byte(nil), frame...)
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
	w.frames[0] = nil // the queue's backing array must not keep a delivered frame
	w.frames = w.frames[1:]
	return f, true
}

// Conn is an established attested channel. It is not safe for
// concurrent use: one transfer at a time, in either direction.
type Conn struct {
	a, b *Endpoint
	wire *Wire

	ab, ba half // a→b and b→a
}

// half is one direction of a channel. Sender and receiver of that
// direction share it here as they share the derived keys in the field.
type half struct {
	block cipher.Block // AES-128-CTR, IV = seq
	mac   hash.Hash    // HMAC-SHA256 over header and ciphertext
	seq   uint64
}

// newHalf derives one direction's keys from the ECDH secret:
// HMAC-SHA256(secret, label), first half the cipher key, second half
// the MAC key.
func newHalf(secret []byte, label string) (half, error) {
	kdf := hmac.New(sha256.New, secret)
	kdf.Write([]byte(label))
	key := kdf.Sum(nil)
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		return half{}, err
	}
	return half{block: block, mac: hmac.New(sha256.New, key[16:])}, nil
}

// handshakeEvidence is what each side sends during setup: its boot
// quote, its domain report (with the X25519 key bound via report data),
// and the key itself.
type handshakeEvidence struct {
	Quote  *tpm.Quote
	Report *core.Report
	Pub    []byte
}

// newChallenge draws the nonce a verifier demands of its peer.
func newChallenge() ([]byte, error) {
	c := make([]byte, 32)
	if _, err := rand.Read(c); err != nil {
		return nil, err
	}
	return c, nil
}

// gatherEvidence produces an endpoint's evidence — boot quote and domain
// report alike — for the challenge its peer drew. Binding the key sets
// the domain's report data and the report then reads it back, so two
// handshakes of one domain must not interleave there: like a transfer,
// the two steps hold the NIC's queue, which every channel of the domain
// shares.
func (e *Endpoint) gatherEvidence(challenge []byte) (*handshakeEvidence, error) {
	x := ecdh.X25519()
	priv, err := x.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	e.priv = priv
	pub := priv.PublicKey().Bytes()
	nic := e.Monitor.Machine().Device(e.NIC)
	nic.Acquire()
	defer nic.Release()
	if err := e.Monitor.SetReportData(e.Domain, e.Domain, tpm.Measure(pub)); err != nil {
		return nil, err
	}
	quote, err := e.Monitor.BootQuote(challenge)
	if err != nil {
		return nil, err
	}
	report, err := e.Monitor.Attest(e.Domain, challenge)
	if err != nil {
		return nil, err
	}
	return &handshakeEvidence{Quote: quote, Report: report, Pub: pub}, nil
}

// verifyPeer applies the endpoint's policy to the peer's evidence, which
// must answer the challenge this endpoint drew.
func (e *Endpoint) verifyPeer(ev *handshakeEvidence, challenge []byte) error {
	sess, err := e.PeerVerifier.NewSession(ev.Quote, challenge)
	if err != nil {
		return fmt.Errorf("%w: boot: %v", ErrPeerUntrusted, err)
	}
	if err := sess.VerifyDomain(ev.Report, challenge); err != nil {
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
// mutual attestation under fresh challenges, bound X25519 handshake,
// per-direction session key derivation.
func Connect(a, b *Endpoint, wire *Wire) (*Conn, error) {
	fromA, err := newChallenge()
	if err != nil {
		return nil, err
	}
	fromB, err := newChallenge()
	if err != nil {
		return nil, err
	}
	evA, err := a.gatherEvidence(fromB)
	if err != nil {
		return nil, err
	}
	evB, err := b.gatherEvidence(fromA)
	if err != nil {
		return nil, err
	}
	// Evidence crosses the untrusted wire (it is public; tampering
	// breaks signatures and is caught by verification).
	if err := a.verifyPeer(evB, fromA); err != nil {
		return nil, err
	}
	if err := b.verifyPeer(evA, fromB); err != nil {
		return nil, err
	}
	x := ecdh.X25519()
	pubB, err := x.NewPublicKey(evB.Pub)
	if err != nil {
		return nil, err
	}
	secret, err := a.priv.ECDH(pubB)
	if err != nil {
		return nil, err
	}
	conn := &Conn{a: a, b: b, wire: wire}
	if conn.ab, err = newHalf(secret, "tyche-dist a->b"); err != nil {
		return nil, err
	}
	if conn.ba, err = newHalf(secret, "tyche-dist b->a"); err != nil {
		return nil, err
	}
	return conn, nil
}

// Frame layout: 8-byte seq | 8-byte length | ciphertext | 32-byte tag.
const (
	frameHeader = 16
	frameTag    = sha256.Size
)

func (h *half) keystream(seq uint64) cipher.Stream {
	var iv [aes.BlockSize]byte
	binary.LittleEndian.PutUint64(iv[:8], seq)
	return cipher.NewCTR(h.block, iv[:])
}

// seal builds the frame for plaintext under the direction's current
// sequence number, in one buffer.
func (h *half) seal(plaintext []byte) []byte {
	n := len(plaintext)
	frame := make([]byte, frameHeader+n, frameHeader+n+frameTag)
	binary.LittleEndian.PutUint64(frame[:8], h.seq)
	binary.LittleEndian.PutUint64(frame[8:frameHeader], uint64(n))
	h.keystream(h.seq).XORKeyStream(frame[frameHeader:], plaintext)
	h.mac.Reset()
	h.mac.Write(frame)
	return h.mac.Sum(frame)
}

// open authenticates frame against the direction's keys and current
// sequence number and decrypts it in place; the plaintext it returns
// aliases frame.
func (h *half) open(frame []byte) ([]byte, error) {
	if len(frame) < frameHeader+frameTag {
		return nil, ErrTampered
	}
	body, tag := frame[:len(frame)-frameTag], frame[len(frame)-frameTag:]
	var sum [frameTag]byte
	h.mac.Reset()
	h.mac.Write(body)
	if !hmac.Equal(h.mac.Sum(sum[:0]), tag) {
		return nil, ErrTampered
	}
	seq := binary.LittleEndian.Uint64(body[:8])
	if seq != h.seq {
		return nil, fmt.Errorf("%w: replayed or reordered (seq %d, want %d)", ErrTampered, seq, h.seq)
	}
	ct := body[frameHeader:]
	if binary.LittleEndian.Uint64(body[8:frameHeader]) != uint64(len(ct)) {
		return nil, ErrTampered
	}
	h.keystream(seq).XORKeyStream(ct, ct)
	return ct, nil
}

// Send moves plaintext from endpoint `from`'s buffer to the peer's,
// RDMA-style: ciphertext is staged in the sender's registered buffer,
// the sender's NIC DMA-reads it onto the wire, the receiver's NIC
// DMA-writes it into the peer buffer, and the receiving domain opens
// it. Returns the plaintext as observed by the receiver.
func (c *Conn) Send(from *Endpoint, plaintext []byte) ([]byte, error) {
	return c.SendOver(c.wire, from, plaintext)
}

// SendOver is Send with the frame routed over wire instead of the wire
// the channel was connected over: the channel is its keys and sequence
// counters, and which link carries a frame is the network's choice. A
// fault armed on wire hits this frame and no other.
func (c *Conn) SendOver(wire *Wire, from *Endpoint, plaintext []byte) ([]byte, error) {
	var to *Endpoint
	var h *half
	switch from {
	case c.a:
		to, h = c.b, &c.ab
	case c.b:
		to, h = c.a, &c.ba
	default:
		return nil, fmt.Errorf("dist: endpoint not part of this connection")
	}
	frame := h.seal(plaintext)
	if uint64(len(frame)) > from.Buffer.Size() || uint64(len(frame)) > to.Buffer.Size() {
		return nil, ErrTooLarge
	}
	if err := from.transmit(frame); err != nil {
		return nil, err
	}
	wire.push(frame)
	rx, ok := wire.pop()
	if !ok {
		return nil, ErrLinkLost
	}
	got, err := to.receive(rx)
	if err != nil {
		return nil, err
	}
	pt, err := h.open(got)
	if err != nil {
		return nil, err
	}
	h.seq++
	return pt, nil
}

// transmit stages frame in the endpoint's registered buffer (the sending
// domain writes it — capability-checked) and has the NIC DMA-read it
// back out (IOMMU-checked) over frame, which then holds what the NIC put
// on the wire. Every channel of a node runs over the same buffer and
// NIC, so the two steps hold the NIC's queue: a frame staged by another
// channel cannot land between them. transmit and receive never hold two
// NICs at once, so concurrent transfers in opposite directions cannot
// deadlock.
func (e *Endpoint) transmit(frame []byte) error {
	nic := e.Monitor.Machine().Device(e.NIC)
	nic.Acquire()
	defer nic.Release()
	if err := e.Monitor.CopyInto(e.Domain, e.Buffer.Start, frame); err != nil {
		return err
	}
	if err := nic.DMARead(e.Buffer.Start, frame); err != nil {
		return fmt.Errorf("dist: tx dma: %w", err)
	}
	return nil
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

// WireCarried reports whether the adversary's tap (see Tap) ever saw
// `needle` in the clear.
func (w *Wire) WireCarried(needle []byte) bool {
	for _, f := range w.Taps {
		if bytes.Contains(f, needle) {
			return true
		}
	}
	return false
}
