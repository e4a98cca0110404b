package bench

import (
	"errors"
	"fmt"

	"github.com/tyche-sim/tyche/internal/attest"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/dist"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/image"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
)

func init() {
	register(Experiment{
		ID:    "C12",
		Title: "Attested cross-machine channels (RDMA-style TEE interconnect)",
		Paper: "§4.2 future work: 'RDMA support for Tyche-based TEEs running on separate machines' + multi-domain attestation",
		Gates: []Gate{
			{"honest-connect", "honest_connected", eq(1), "§4.2: TEEs on separate machines connect after mutual attestation"},
			{"payload-intact", "payloads_intact", eq(2), "both directions deliver verbatim"},
			{"wire-sees-ciphertext", "wire_plaintext", eq(0), "the untrusted wire never carries plaintext"},
			{"hosts-off-the-path", "host_buffer_reads", eq(0), "neither provider OS can read the endpoints' buffers"},
			{"impostor-rejected", "impostor_untrusted", eq(1), "a machine running an unknown monitor is refused"},
			{"measurement-pinned", "wrong_measurement_untrusted", eq(1), "a peer enclave with the wrong measurement is refused"},
			{"tamper-detected", "tamper_rejected", eq(1), "a bit-flip in flight fails authentication"},
			{"replay-detected", "replay_rejected", eq(1), "a replayed frame fails authentication"},
		},
	}, runC12)
}

// runC12 connects enclaves on two independently booted machines over an
// untrusted wire. Shape: the honest connection establishes after mutual
// chain verification and carries data with neither host OS nor the wire
// seeing plaintext; an impostor machine (different monitor), a wrong
// enclave measurement, in-flight tampering, and replay are all
// rejected.
func runC12(cfg Config, res *Result) error {
	res.Columns = []string{"event", "outcome"}
	a, err := newRDMANode("rdma-endpoint", 2, core.BootConfig{})
	if err != nil {
		return err
	}
	b, err := newRDMANode("rdma-endpoint", 2, core.BootConfig{})
	if err != nil {
		return err
	}
	wire := &dist.Wire{}
	wire.Tap()
	epA, epB, err := a.endpoints(b)
	if err != nil {
		return err
	}
	conn, err := dist.Connect(epA, epB, wire)
	res.row("mutual attestation (quote+report+measurement+key binding), both directions", boolCell(err == nil))
	res.metric("honest_connected", bit(err == nil))
	if err != nil {
		res.note("honest connect: %v", err)
		return nil // no channel to probe; honest-connect fails
	}

	payload := []byte("cross-machine TEE payload: hosts and wire see ciphertext only")
	got, err := conn.Send(epA, payload)
	if err != nil {
		return err
	}
	back, err := conn.Send(epB, []byte("acknowledged"))
	if err != nil {
		return err
	}
	res.row("A->B and B->A transfers through registered buffers + NIC DMA", "ok")
	res.metric("payloads_intact", count(string(got) == string(payload), string(back) == "acknowledged"))
	res.metric("wire_plaintext", bit(wire.WireCarried(payload)))

	_, hostAErr := a.mon.CopyFrom(core.InitialDomain, epA.Buffer.Start, 8)
	_, hostBErr := b.mon.CopyFrom(core.InitialDomain, epB.Buffer.Start, 8)
	res.row("host OS probes on both registered buffers", boolCell(hostAErr == nil || hostBErr == nil))
	res.metric("host_buffer_reads", count(hostAErr == nil, hostBErr == nil))

	// Attack 1: impostor machine with a different monitor.
	c, err := newRDMANode("rdma-endpoint", 2, core.BootConfig{Identity: []byte("trojaned monitor build")})
	if err != nil {
		return err
	}
	epAtoC, epCtoA, err := a.endpoints(c)
	if err != nil {
		return err
	}
	// A insists on the *trusted* monitor identity for its peer.
	epAtoC.PeerVerifier = attest.NewVerifier(c.rot.EndorsementKey(), core.DefaultIdentity)
	_, impostorErr := dist.Connect(epAtoC, epCtoA, wire)
	res.row("impostor machine (unknown monitor) connects", boolCell(impostorErr == nil))
	res.metric("impostor_untrusted", bit(errors.Is(impostorErr, dist.ErrPeerUntrusted)))

	// Attack 2: wrong enclave measurement.
	evil := tpm.Measure([]byte("evil enclave"))
	epA.PeerMeasurement = &evil
	_, measErr := dist.Connect(epA, epB, wire)
	res.row("peer with unexpected enclave measurement", boolCell(measErr == nil))
	res.metric("wrong_measurement_untrusted", bit(errors.Is(measErr, dist.ErrPeerUntrusted)))
	// Restore for the remaining attacks.
	measOK, err := b.img.Measurement(b.dom.Base())
	if err != nil {
		return err
	}
	epA.PeerMeasurement = &measOK
	conn, err = dist.Connect(epA, epB, wire)
	if err != nil {
		return err
	}

	// Attack 3: tamper in flight.
	wire.Corrupt = func(f []byte) []byte { f[20] ^= 0xff; return f }
	_, tamperErr := conn.Send(epA, []byte("integrity"))
	wire.Corrupt = nil
	res.row("ciphertext bit-flip on the wire", boolCell(tamperErr == nil))
	res.metric("tamper_rejected", bit(errors.Is(tamperErr, dist.ErrTampered)))

	// Attack 4: replay an old frame.
	if _, err := conn.Send(epA, []byte("fresh")); err != nil {
		return err
	}
	captured := append([]byte(nil), wire.Taps[len(wire.Taps)-1]...)
	wire.Corrupt = func([]byte) []byte { return append([]byte(nil), captured...) }
	_, replayErr := conn.Send(epA, []byte("newer"))
	wire.Corrupt = nil
	res.row("replay of a captured frame", boolCell(replayErr == nil))
	res.metric("replay_rejected", bit(errors.Is(replayErr, dist.ErrTampered)))
	res.note("session keys derive from X25519 public keys bound into each enclave's signed report data")
	return nil
}

// rdmaNode is one independently rooted machine (its own TPM, monitor
// and dom0) hosting a sealed enclave that owns the machine's NIC and a
// registered .rdma buffer: one end of a dist channel (C12, C21).
type rdmaNode struct {
	mon *core.Monitor
	rot *tpm.TPM
	cl  *libtyche.Client
	dom *libtyche.Domain
	img *image.Image
}

// newRDMANode boots the machine under boot (Machine and TPM are filled
// in here) and loads the endpoint enclave with a bufPages-page buffer.
func newRDMANode(name string, bufPages uint64, boot core.BootConfig) (*rdmaNode, error) {
	mach, err := hw.NewMachine(hw.Config{
		MemBytes: 16 << 20, NumCores: 2, IOMMUAllowByDefault: true,
		Devices: []hw.DeviceConfig{{Name: "rnic0", Class: hw.DevNIC}},
	})
	if err != nil {
		return nil, err
	}
	n := &rdmaNode{}
	if n.rot, err = tpm.New(nil); err != nil {
		return nil, err
	}
	boot.Machine, boot.TPM = mach, n.rot
	if n.mon, err = core.Boot(boot); err != nil {
		return nil, err
	}
	n.cl = libtyche.New(n.mon, core.InitialDomain)
	if err := n.cl.AutoHeap(dom0ReservePages); err != nil {
		return nil, err
	}
	n.img = haltImage(name).WithBSS(".rdma", bufPages*phys.PageSize)
	opts := loadOn(1)
	opts.Devices = []phys.DeviceID{0}
	n.dom, err = n.cl.NewEnclave(n.img, opts)
	return n, err
}

// endpoints are the two ends of a channel from n to peer.
func (n *rdmaNode) endpoints(peer *rdmaNode) (mine, theirs *dist.Endpoint, err error) {
	if mine, err = n.endpoint(peer); err == nil {
		theirs, err = peer.endpoint(n)
	}
	return mine, theirs, err
}

// endpoint is n's side of a channel to peer: it pins the peer's TPM,
// monitor identity and enclave measurement.
func (n *rdmaNode) endpoint(peer *rdmaNode) (*dist.Endpoint, error) {
	buf, ok := n.dom.SegmentRegion(".rdma")
	if !ok {
		return nil, fmt.Errorf("no .rdma segment in domain %d", n.dom.ID())
	}
	meas, err := peer.img.Measurement(peer.dom.Base())
	if err != nil {
		return nil, err
	}
	return &dist.Endpoint{
		Monitor: n.mon, TPM: n.rot, Domain: n.dom.ID(), Buffer: buf, NIC: 0,
		PeerVerifier:    attest.NewVerifier(peer.rot.EndorsementKey(), peer.mon.Identity()),
		PeerMeasurement: &meas,
	}, nil
}
