package dist

import (
	"bytes"
	"crypto/subtle"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"github.com/tyche-sim/tyche/internal/attest"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/fault"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/image"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
)

const pg = phys.PageSize

// machineT is one simulated machine with its endpoint enclave.
type machineT struct {
	mon *core.Monitor
	rot *tpm.TPM
	dom *libtyche.Domain
	img *image.Image
}

func buildMachine(t testing.TB, identity []byte) *machineT {
	t.Helper()
	mach, err := hw.NewMachine(hw.Config{
		MemBytes: 16 << 20, NumCores: 2, IOMMUAllowByDefault: true,
		Devices: []hw.DeviceConfig{{Name: "rnic0", Class: hw.DevNIC}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rot, err := tpm.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := core.Boot(core.BootConfig{Machine: mach, TPM: rot, Identity: identity})
	if err != nil {
		t.Fatal(err)
	}
	cl := libtyche.New(mon, core.InitialDomain)
	if err := cl.AutoHeap(16); err != nil {
		t.Fatal(err)
	}
	idle := hw.NewAsm()
	idle.Hlt()
	if err := mon.CopyInto(core.InitialDomain, 4*pg, idle.MustAssemble(4*pg)); err != nil {
		t.Fatal(err)
	}
	if err := mon.SetEntry(core.InitialDomain, core.InitialDomain, 4*pg); err != nil {
		t.Fatal(err)
	}
	// The RDMA endpoint enclave: code + registered buffer + the NIC.
	prog := hw.NewAsm()
	prog.Hlt()
	img := image.NewProgram("rdma-endpoint", prog.MustAssemble(0)).WithBSS(".rdma", 2*pg)
	opts := libtyche.DefaultLoadOptions()
	opts.Cores = []phys.CoreID{1}
	opts.Devices = []phys.DeviceID{0}
	dom, err := cl.NewEnclave(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &machineT{mon: mon, rot: rot, dom: dom, img: img}
}

func (m *machineT) endpoint(t testing.TB, peer *machineT) *Endpoint {
	t.Helper()
	buf, ok := m.dom.SegmentRegion(".rdma")
	if !ok {
		t.Fatal("no .rdma segment")
	}
	peerMeas, err := peer.img.Measurement(peer.dom.Base())
	if err != nil {
		t.Fatal(err)
	}
	return &Endpoint{
		Monitor:         m.mon,
		TPM:             m.rot,
		Domain:          m.dom.ID(),
		Buffer:          buf,
		NIC:             0,
		PeerVerifier:    attest.NewVerifier(peer.rot.EndorsementKey(), peer.mon.Identity()),
		PeerMeasurement: &peerMeas,
	}
}

func TestAttestedChannelEndToEnd(t *testing.T) {
	ma := buildMachine(t, nil)
	mb := buildMachine(t, nil)
	wire := &Wire{}
	wire.Tap()
	a := ma.endpoint(t, mb)
	b := mb.endpoint(t, ma)
	conn, err := Connect(a, b, wire)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("cross-machine confidential payload")
	got, err := conn.Send(a, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("received %q", got)
	}
	// The other direction works too.
	reply := []byte("ack from machine B")
	got, err = conn.Send(b, reply)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, reply) {
		t.Fatalf("reply %q", got)
	}
	// The wire never carried plaintext.
	if wire.WireCarried(msg) || wire.WireCarried(reply) {
		t.Fatal("plaintext on the wire")
	}
	// Neither host OS can read the endpoints' buffers.
	if _, err := ma.mon.CopyFrom(core.InitialDomain, a.Buffer.Start, 8); err == nil {
		t.Fatal("host A read the registered buffer")
	}
	if _, err := mb.mon.CopyFrom(core.InitialDomain, b.Buffer.Start, 8); err == nil {
		t.Fatal("host B read the registered buffer")
	}
	// The receive interrupt went to the endpoint's holder queue.
	if ma.mon.Stats().IRQsDropped+mb.mon.Stats().IRQsDropped == 0 {
		// Endpoints registered no handler: interrupts are pending or
		// dropped at next run; just ensure they were raised.
		if ma.mon.Machine().PendingIRQs()+mb.mon.Machine().PendingIRQs() == 0 {
			t.Fatal("no receive interrupts raised")
		}
	}
}

func TestImpostorMachineRejected(t *testing.T) {
	ma := buildMachine(t, nil)
	// The impostor runs a different (unknown) monitor implementation.
	mc := buildMachine(t, []byte("trojaned monitor build"))
	wire := &Wire{}
	a := ma.endpoint(t, mc)
	// a's verifier only trusts the default identity.
	a.PeerVerifier = attest.NewVerifier(mc.rot.EndorsementKey(), core.DefaultIdentity)
	c := mc.endpoint(t, ma)
	if _, err := Connect(a, c, wire); !errors.Is(err, ErrPeerUntrusted) {
		t.Fatalf("impostor accepted: %v", err)
	}
}

func TestWrongMeasurementRejected(t *testing.T) {
	ma := buildMachine(t, nil)
	mb := buildMachine(t, nil)
	wire := &Wire{}
	a := ma.endpoint(t, mb)
	evil := tpm.Measure([]byte("some other enclave"))
	a.PeerMeasurement = &evil
	b := mb.endpoint(t, ma)
	if _, err := Connect(a, b, wire); !errors.Is(err, ErrPeerUntrusted) {
		t.Fatalf("wrong measurement accepted: %v", err)
	}
}

func TestWireTamperDetected(t *testing.T) {
	ma := buildMachine(t, nil)
	mb := buildMachine(t, nil)
	wire := &Wire{}
	a := ma.endpoint(t, mb)
	b := mb.endpoint(t, ma)
	conn, err := Connect(a, b, wire)
	if err != nil {
		t.Fatal(err)
	}
	wire.Corrupt = func(f []byte) []byte {
		f[20] ^= 0xff // flip a ciphertext byte
		return f
	}
	if _, err := conn.Send(a, []byte("integrity-protected")); !errors.Is(err, ErrTampered) {
		t.Fatalf("tampered frame accepted: %v", err)
	}
	wire.Corrupt = nil
}

func TestReplayRejected(t *testing.T) {
	ma := buildMachine(t, nil)
	mb := buildMachine(t, nil)
	wire := &Wire{}
	wire.Tap()
	a := ma.endpoint(t, mb)
	b := mb.endpoint(t, ma)
	conn, err := Connect(a, b, wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(a, []byte("first")); err != nil {
		t.Fatal(err)
	}
	// Replay the captured first frame as the second message.
	replay := wire.Taps[0]
	wire.Corrupt = func(f []byte) []byte { return append([]byte(nil), replay...) }
	if _, err := conn.Send(a, []byte("second")); !errors.Is(err, ErrTampered) {
		t.Fatalf("replay accepted: %v", err)
	}
}

// TestLinkDropRetryable: a dropped frame surfaces as ErrLinkLost — not
// an integrity failure — and the unconsumed sequence number lets the
// sender retry the identical payload successfully.
func TestLinkDropRetryable(t *testing.T) {
	ma := buildMachine(t, nil)
	mb := buildMachine(t, nil)
	wire := &Wire{}
	faults, err := fault.ParseSchedule("drop@0")
	if err != nil {
		t.Fatal(err)
	}
	wire.Arm(faults)
	a := ma.endpoint(t, mb)
	b := mb.endpoint(t, ma)
	conn, err := Connect(a, b, wire)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("at-most-once is not enough")
	if _, err := conn.Send(a, msg); !errors.Is(err, ErrLinkLost) {
		t.Fatalf("dropped frame: %v", err)
	}
	if wire.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", wire.Dropped)
	}
	got, err := conn.Send(a, msg)
	if err != nil {
		t.Fatalf("retry after drop: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("retry delivered %q", got)
	}
}

// TestLinkDupRejectedAsReplay: a duplicated frame is a byte-exact
// replay; the first copy delivers, the stale second copy dies on the
// receiver's sequence check with ErrTampered.
func TestLinkDupRejectedAsReplay(t *testing.T) {
	ma := buildMachine(t, nil)
	mb := buildMachine(t, nil)
	wire := &Wire{}
	faults, err := fault.ParseSchedule("dup@0")
	if err != nil {
		t.Fatal(err)
	}
	wire.Arm(faults)
	a := ma.endpoint(t, mb)
	b := mb.endpoint(t, ma)
	conn, err := Connect(a, b, wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(a, []byte("first")); err != nil {
		t.Fatalf("first copy should deliver: %v", err)
	}
	if _, err := conn.Send(a, []byte("second")); !errors.Is(err, ErrTampered) {
		t.Fatalf("stale duplicate accepted: %v", err)
	}
	if wire.Duped != 1 {
		t.Fatalf("Duped = %d, want 1", wire.Duped)
	}
}

// TestLinkReorderRejected: a held-back frame first looks like a loss
// (ErrLinkLost, retryable), and when it finally lands out of order the
// receiver rejects it as reordered with ErrTampered.
func TestLinkReorderRejected(t *testing.T) {
	ma := buildMachine(t, nil)
	mb := buildMachine(t, nil)
	wire := &Wire{}
	faults, err := fault.ParseSchedule("reorder@0")
	if err != nil {
		t.Fatal(err)
	}
	wire.Arm(faults)
	a := ma.endpoint(t, mb)
	b := mb.endpoint(t, ma)
	conn, err := Connect(a, b, wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(a, []byte("held")); !errors.Is(err, ErrLinkLost) {
		t.Fatalf("held frame: %v", err)
	}
	// Retry passes (fresh frame, same seq); the stale held frame is
	// released behind it.
	if _, err := conn.Send(a, []byte("held")); err != nil {
		t.Fatalf("retry after reorder: %v", err)
	}
	// The late out-of-order frame now precedes the next send and must
	// be rejected by the sequence check.
	if _, err := conn.Send(a, []byte("next")); !errors.Is(err, ErrTampered) {
		t.Fatalf("out-of-order frame accepted: %v", err)
	}
	if wire.Reordered != 1 {
		t.Fatalf("Reordered = %d, want 1", wire.Reordered)
	}
}

// TestLinkFaultsDeterministic: the same armed schedule applied to the
// same frame stream produces the same deliveries, byte for byte.
func TestLinkFaultsDeterministic(t *testing.T) {
	run := func() ([][]byte, [3]uint64) {
		w := &Wire{}
		w.Arm(fault.FromSeedLinks(1234, 5))
		for i := byte(0); i < 8; i++ {
			w.push([]byte{i, i, i})
		}
		var out [][]byte
		for {
			f, ok := w.pop()
			if !ok {
				break
			}
			out = append(out, f)
		}
		return out, [3]uint64{w.Dropped, w.Duped, w.Reordered}
	}
	d1, c1 := run()
	d2, c2 := run()
	if c1 != c2 {
		t.Fatalf("counters diverged: %v vs %v", c1, c2)
	}
	if len(d1) != len(d2) {
		t.Fatalf("delivery count diverged: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if !bytes.Equal(d1[i], d2[i]) {
			t.Fatalf("delivery %d diverged", i)
		}
	}
	if c1[0]+c1[1]+c1[2] == 0 {
		t.Fatal("seeded schedule fired nothing")
	}
}

func TestOversizedMessageRejected(t *testing.T) {
	ma := buildMachine(t, nil)
	mb := buildMachine(t, nil)
	wire := &Wire{}
	a := ma.endpoint(t, mb)
	b := mb.endpoint(t, ma)
	conn, err := Connect(a, b, wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(a, make([]byte, 3*pg)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized accepted: %v", err)
	}
	// Foreign endpoints are rejected.
	if _, err := conn.Send(&Endpoint{}, []byte("x")); err == nil {
		t.Fatal("foreign endpoint accepted")
	}
}

// Every channel of a node stages frames in the same registered buffer
// and moves them with the same NIC (the fleet runs a migration transfer
// and an rv digest ship through one agent at once). Two channels that
// share machine A — one sending from it, one receiving into it — must
// not see each other's frames. Run under -race: it also pins the NIC's
// DMA counter.
func TestChannelsSharingOneNIC(t *testing.T) {
	ma := buildMachine(t, nil)
	mb := buildMachine(t, nil)
	mc := buildMachine(t, nil)
	aToB := ma.endpoint(t, mb)
	connAB, err := Connect(aToB, mb.endpoint(t, ma), &Wire{})
	if err != nil {
		t.Fatal(err)
	}
	cToA := mc.endpoint(t, ma)
	connCA, err := Connect(cToA, ma.endpoint(t, mc), &Wire{})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	send := func(conn *Conn, from *Endpoint, msg []byte) error {
		for i := 0; i < rounds; i++ {
			got, err := conn.Send(from, msg)
			if err != nil {
				return fmt.Errorf("round %d: %w", i, err)
			}
			if !bytes.Equal(got, msg) {
				return fmt.Errorf("round %d: received %d bytes, sent %d", i, len(got), len(msg))
			}
		}
		return nil
	}
	errs := make(chan error, 2)
	go func() { errs <- send(connAB, aToB, bytes.Repeat([]byte{0xa5}, 3000)) }()
	go func() { errs <- send(connCA, cToA, bytes.Repeat([]byte{0x5a}, 700)) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	nic := ma.mon.Machine().Device(0)
	if got := nic.DMACount(); got != 2*rounds {
		t.Errorf("machine A's NIC counted %d DMAs, want %d", got, 2*rounds)
	}
}

// connected is two machines with an open channel between them.
func connected(t testing.TB) (conn *Conn, a, b *Endpoint, wire *Wire) {
	t.Helper()
	ma := buildMachine(t, nil)
	mb := buildMachine(t, nil)
	wire = &Wire{}
	a, b = ma.endpoint(t, mb), mb.endpoint(t, ma)
	conn, err := Connect(a, b, wire)
	if err != nil {
		t.Fatal(err)
	}
	return conn, a, b, wire
}

func xor(x, y []byte) []byte {
	out := make([]byte, len(x))
	subtle.XORBytes(out, x, y)
	return out
}

// TestDirectionsShareNoKeys: both directions start at sequence number 0
// and the sequence number is the CTR IV, so under one cipher key the two
// first frames would be one keystream over two plaintexts (their XOR
// leaks the plaintexts' XOR), and under one MAC key a frame captured one
// way would be accepted the other way.
func TestDirectionsShareNoKeys(t *testing.T) {
	conn, a, b, wire := connected(t)
	wire.Tap()
	there := []byte("first frame from A to B, sequence number 0")
	back := []byte("first frame from B to A, sequence number 0")
	back = append(back, make([]byte, len(there)-len(back))...)
	if _, err := conn.Send(a, there); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Send(b, back); err != nil {
		t.Fatal(err)
	}
	body := func(frame []byte) []byte { return frame[frameHeader : len(frame)-frameTag] }
	if bytes.Equal(xor(body(wire.Taps[0]), body(wire.Taps[1])), xor(there, back)) {
		t.Fatal("the first frames of the two directions were encrypted under one keystream")
	}
	// A's second frame carries sequence number 1, which is what B→A
	// expects next: replayed into that direction it must not verify.
	if _, err := conn.Send(a, []byte("second frame from A to B")); err != nil {
		t.Fatal(err)
	}
	captured := wire.Taps[2]
	wire.Corrupt = func([]byte) []byte { return append([]byte(nil), captured...) }
	if got, err := conn.Send(b, []byte("second frame from B to A")); !errors.Is(err, ErrTampered) {
		t.Fatalf("A→B frame replayed into B→A: delivered %q, err = %v, want ErrTampered", got, err)
	}
}

// TestReconnectDerivesFreshKeys: a second handshake between the same two
// endpoints shares no key with the first — the same plaintext under the
// same sequence number leaves as a different frame.
func TestReconnectDerivesFreshKeys(t *testing.T) {
	conn, a, b, wire := connected(t)
	wire.Tap()
	msg := []byte("same plaintext, same sequence number")
	if _, err := conn.Send(a, msg); err != nil {
		t.Fatal(err)
	}
	again, err := Connect(a, b, wire)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := again.Send(a, msg); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(wire.Taps[0], wire.Taps[1]) {
		t.Fatal("two handshakes derived the same keys")
	}
}

// TestHandshakeEvidenceNotReplayable: a verifier draws the nonce its
// peer must quote, so evidence that answered one handshake's challenge
// is refused by the next.
func TestHandshakeEvidenceNotReplayable(t *testing.T) {
	ma := buildMachine(t, nil)
	mb := buildMachine(t, nil)
	a, b := ma.endpoint(t, mb), mb.endpoint(t, ma)
	first, err := newChallenge()
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := b.gatherEvidence(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.verifyPeer(recorded, first); err != nil {
		t.Fatalf("evidence refused by the handshake it answers: %v", err)
	}
	next, err := newChallenge()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.verifyPeer(recorded, next); !errors.Is(err, ErrPeerUntrusted) {
		t.Fatalf("recorded evidence presented to a later handshake: err = %v, want ErrPeerUntrusted", err)
	}
}

// TestUntappedWireRetainsNothing: the tap is the adversary's to install;
// a wire without one holds a frame from push to pop and no longer.
func TestUntappedWireRetainsNothing(t *testing.T) {
	conn, a, _, wire := connected(t)
	for i := 0; i < 64; i++ {
		if _, err := conn.Send(a, bytes.Repeat([]byte{byte(i)}, 512)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(wire.Taps) + len(wire.frames) + len(wire.held); n != 0 {
		t.Fatalf("an untapped wire retains %d frames after 64 deliveries", n)
	}
}

// sendPayload is a migration snapshot's order of magnitude and fills the
// test machines' two-page registered buffer.
const sendPayload = 8000

// TestSendAllocationBudget pins Send's copy chain: the sealed frame, the
// wire's copy and the receiving domain's read are three buffers of about
// the payload's size; a fourth is the margin for everything small.
func TestSendAllocationBudget(t *testing.T) {
	conn, a, _, _ := connected(t)
	msg := make([]byte, sendPayload)
	const sends = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sends; i++ {
		if _, err := conn.Send(a, msg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / sends; got > 4*sendPayload {
		t.Fatalf("one Send of %d bytes allocates %d bytes, budget %d", sendPayload, got, 4*sendPayload)
	}
}

func BenchmarkSend(b *testing.B) {
	conn, a, _, _ := connected(b)
	msg := make([]byte, sendPayload)
	b.SetBytes(sendPayload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Send(a, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzDistFrame drives half.open with frames derived from a genuine
// one: the fuzz input is XORed over the sealed frame (and any excess
// appended). open never panics; the genuine frame opens to its
// plaintext and every other byte string is ErrTampered.
func FuzzDistFrame(f *testing.F) {
	f.Add([]byte("snapshot"), []byte{})
	f.Add([]byte("snapshot"), []byte{0: 1})                // sequence number
	f.Add([]byte("snapshot"), append(make([]byte, 20), 1)) // ciphertext
	f.Add([]byte{}, make([]byte, frameHeader+frameTag+1))  // one byte longer
	f.Add([]byte("x"), []byte{8: 0xff})                    // length field
	f.Fuzz(func(t *testing.T, plaintext, edit []byte) {
		h, err := newHalf([]byte("fuzz secret"), "tyche-dist a->b")
		if err != nil {
			t.Fatal(err)
		}
		sealed := h.seal(plaintext)
		frame := append([]byte(nil), sealed...)
		for i, b := range edit {
			if i < len(frame) {
				frame[i] ^= b
			} else {
				frame = append(frame, b)
			}
		}
		// open decrypts in place, so compare first.
		genuine := bytes.Equal(frame, sealed)
		got, err := h.open(frame)
		if genuine {
			if err != nil || !bytes.Equal(got, plaintext) {
				t.Fatalf("genuine frame: %q, %v; want %q", got, err, plaintext)
			}
		} else if !errors.Is(err, ErrTampered) {
			t.Fatalf("altered frame: %v, want ErrTampered", err)
		}
		genuine = bytes.Equal(edit, sealed)
		if _, err := h.open(edit); !genuine && !errors.Is(err, ErrTampered) {
			t.Fatalf("arbitrary frame: %v, want ErrTampered", err)
		}
	})
}
