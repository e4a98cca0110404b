// Attested cross-machine channels: two enclaves on two independently
// booted machines (separate TPMs, separate monitors) establish a
// mutually attested, integrity-protected channel over an untrusted wire
// — the paper's "RDMA support for Tyche-based TEEs running on separate
// machines" with "all communication paths secured and attested" (§4.2).
package main

import (
	"fmt"
	"log"

	tyche "github.com/tyche-sim/tyche"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// node is one machine with an RDMA endpoint enclave on it.
type node struct {
	p   *tyche.Platform
	dom *tyche.Domain
	img *tyche.Image
}

func bootNode(name string) (*node, error) {
	p, err := tyche.NewPlatform(tyche.Options{
		Devices: []tyche.DeviceSpec{{Name: "rnic0", Class: "nic"}},
	})
	if err != nil {
		return nil, err
	}
	// The endpoint enclave: code + a registered buffer + its own NIC
	// (RDMA-style: the application owns the queue pair, the host OS is
	// off the data path).
	img := tyche.NewProgram(name, tyche.NewAsm().Hlt().MustAssemble(0))
	img.Segments = append(img.Segments, tyche.Segment{
		Name: ".rdma", Size: 2 * tyche.PageSize, Rights: tyche.MemRW,
		Confidential: true,
	})
	opts := tyche.DefaultLoadOptions()
	opts.Cores = []tyche.CoreID{1}
	opts.Devices = []tyche.DeviceID{0}
	dom, err := p.Dom0.NewEnclave(img, opts)
	if err != nil {
		return nil, err
	}
	return &node{p: p, dom: dom, img: img}, nil
}

func (n *node) endpoint(peer *node) (*tyche.RemoteEndpoint, error) {
	buf, ok := n.dom.SegmentRegion(".rdma")
	if !ok {
		return nil, fmt.Errorf("no registered buffer")
	}
	// Pin the peer's exact enclave identity, computed offline from its
	// image (what tyche-hash gives a relying party).
	peerMeas, err := peer.img.Measurement(peer.dom.Base())
	if err != nil {
		return nil, err
	}
	return &tyche.RemoteEndpoint{
		Monitor:         n.p.Monitor,
		TPM:             n.p.TPM,
		Domain:          n.dom.ID(),
		Buffer:          buf,
		NIC:             0,
		PeerVerifier:    tyche.NewVerifier(peer.p.TPM.EndorsementKey(), peer.p.Monitor.Identity()),
		PeerMeasurement: &peerMeas,
	}, nil
}

func run() error {
	alice, err := bootNode("alice-endpoint")
	if err != nil {
		return err
	}
	bob, err := bootNode("bob-endpoint")
	if err != nil {
		return err
	}
	fmt.Println("machine A:", alice.p)
	fmt.Println("machine B:", bob.p)

	wire := &tyche.RemoteWire{}
	wire.Tap()
	epA, err := alice.endpoint(bob)
	if err != nil {
		return err
	}
	epB, err := bob.endpoint(alice)
	if err != nil {
		return err
	}
	conn, err := tyche.ConnectRemote(epA, epB, wire)
	if err != nil {
		return err
	}
	fmt.Println("mutual attestation ok: each side verified the other's TPM, monitor, and enclave measurement")

	secret := []byte("cross-machine secret: neither host OS nor the wire sees this")
	got, err := conn.Send(epA, secret)
	if err != nil {
		return err
	}
	if string(got) != string(secret) {
		return fmt.Errorf("payload corrupted")
	}
	fmt.Printf("A -> B delivered %d bytes through registered buffers and NIC DMA\n", len(got))

	if wire.WireCarried(secret) {
		return fmt.Errorf("BUG: plaintext on the wire")
	}
	fmt.Println("the adversary's wire tap saw only ciphertext")

	// Host OSes probe the registered buffers: denied on both machines.
	if _, err := alice.p.Monitor.CopyFrom(tyche.InitialDomain, epA.Buffer.Start, 8); err == nil {
		return fmt.Errorf("BUG: host A read the buffer")
	}
	if _, err := bob.p.Monitor.CopyFrom(tyche.InitialDomain, epB.Buffer.Start, 8); err == nil {
		return fmt.Errorf("BUG: host B read the buffer")
	}
	fmt.Println("both host OS probes on the registered buffers: denied")

	// An in-flight bit flip is detected.
	wire.Corrupt = func(f []byte) []byte { f[20] ^= 1; return f }
	if _, err := conn.Send(epA, []byte("integrity check")); err == nil {
		return fmt.Errorf("BUG: tampered frame accepted")
	}
	wire.Corrupt = nil
	fmt.Println("tampered frame rejected by message authentication")
	fmt.Println("attested rdma channel complete")
	return nil
}
