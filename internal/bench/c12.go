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
		Run:   runC12,
	})
}

// runC12 connects enclaves on two independently booted machines over an
// untrusted wire. Shape: the honest connection establishes after mutual
// chain verification and carries data with neither host OS nor the wire
// seeing plaintext; an impostor machine (different monitor), a wrong
// enclave measurement, in-flight tampering, and replay are all
// rejected.
func runC12(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C12", Title: "Cross-machine attested channels",
		Columns: []string{"event", "outcome"},
	}
	a, err := newRDMANode("rdma-endpoint", 2, core.BootConfig{})
	if err != nil {
		return nil, err
	}
	b, err := newRDMANode("rdma-endpoint", 2, core.BootConfig{})
	if err != nil {
		return nil, err
	}
	wire := &dist.Wire{}
	wire.Tap()
	epA, err := a.endpoint(b)
	if err != nil {
		return nil, err
	}
	epB, err := b.endpoint(a)
	if err != nil {
		return nil, err
	}
	conn, err := dist.Connect(epA, epB, wire)
	res.row("mutual attestation (quote+report+measurement+key binding), both directions", boolCell(err == nil))
	res.check("honest-connect", err == nil, "two independently rooted machines established the channel: %v", err)
	if err != nil {
		return res, nil // no channel to probe; the FAIL above is the outcome
	}

	payload := []byte("cross-machine TEE payload: hosts and wire see ciphertext only")
	got, err := conn.Send(epA, payload)
	if err != nil {
		return nil, err
	}
	back, err := conn.Send(epB, []byte("acknowledged"))
	if err != nil {
		return nil, err
	}
	res.row("A->B and B->A transfers through registered buffers + NIC DMA", "ok")
	res.check("payload-intact", string(got) == string(payload) && string(back) == "acknowledged",
		"both directions delivered verbatim")
	res.check("wire-sees-ciphertext", !wire.WireCarried(payload),
		"the adversary's tap never saw plaintext across %d frames", len(wire.Taps))

	_, hostAErr := a.mon.CopyFrom(core.InitialDomain, epA.Buffer.Start, 8)
	_, hostBErr := b.mon.CopyFrom(core.InitialDomain, epB.Buffer.Start, 8)
	res.row("host OS probes on both registered buffers", boolCell(hostAErr == nil || hostBErr == nil))
	res.check("hosts-off-the-path", hostAErr != nil && hostBErr != nil,
		"neither provider OS can read the endpoints' buffers")

	// Attack 1: impostor machine with a different monitor.
	c, err := newRDMANode("rdma-endpoint", 2, core.BootConfig{Identity: []byte("trojaned monitor build")})
	if err != nil {
		return nil, err
	}
	epCtoA, err := c.endpoint(a)
	if err != nil {
		return nil, err
	}
	epAtoC, err := a.endpoint(c)
	if err != nil {
		return nil, err
	}
	// A insists on the *trusted* monitor identity for its peer.
	epAtoC.PeerVerifier = attest.NewVerifier(c.rot.EndorsementKey(), core.DefaultIdentity)
	_, impostorErr := dist.Connect(epAtoC, epCtoA, wire)
	res.row("impostor machine (unknown monitor) connects", boolCell(impostorErr == nil))
	res.check("impostor-rejected", errors.Is(impostorErr, dist.ErrPeerUntrusted), "%v", impostorErr)

	// Attack 2: wrong enclave measurement.
	evil := tpm.Measure([]byte("evil enclave"))
	epA.PeerMeasurement = &evil
	_, measErr := dist.Connect(epA, epB, wire)
	res.row("peer with unexpected enclave measurement", boolCell(measErr == nil))
	res.check("measurement-pinned", errors.Is(measErr, dist.ErrPeerUntrusted), "%v", measErr)
	// Restore for the remaining attacks.
	measOK, err := b.img.Measurement(b.dom.Base())
	if err != nil {
		return nil, err
	}
	epA.PeerMeasurement = &measOK
	conn, err = dist.Connect(epA, epB, wire)
	if err != nil {
		return nil, err
	}

	// Attack 3: tamper in flight.
	wire.Corrupt = func(f []byte) []byte { f[20] ^= 0xff; return f }
	_, tamperErr := conn.Send(epA, []byte("integrity"))
	wire.Corrupt = nil
	res.row("ciphertext bit-flip on the wire", boolCell(tamperErr == nil))
	res.check("tamper-detected", errors.Is(tamperErr, dist.ErrTampered), "%v", tamperErr)

	// Attack 4: replay an old frame.
	if _, err := conn.Send(epA, []byte("fresh")); err != nil {
		return nil, err
	}
	captured := append([]byte(nil), wire.Taps[len(wire.Taps)-1]...)
	wire.Corrupt = func([]byte) []byte { return append([]byte(nil), captured...) }
	_, replayErr := conn.Send(epA, []byte("newer"))
	wire.Corrupt = nil
	res.row("replay of a captured frame", boolCell(replayErr == nil))
	res.check("replay-detected", errors.Is(replayErr, dist.ErrTampered), "%v", replayErr)
	res.note("session keys derive from X25519 public keys bound into each enclave's signed report data")
	return res, nil
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
