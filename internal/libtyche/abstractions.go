package libtyche

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/image"
	"github.com/tyche-sim/tyche/internal/phys"
)

// The constructors below are the paper's point: sandboxes, enclaves,
// kernel compartments, and confidential VMs are not monitor features.
// Each is a policy over the same create/share/grant/seal API (§4.2),
// which is why they compose and nest freely.

// NewSandbox loads img as a sandbox: the parent retains full visibility
// into the child (all segments shared, refcount 2) while the child is
// confined to its own segments. This is user/kernel compartmentalization
// — protection *of* the parent *from* the child, without secrecy.
func (c *Client) NewSandbox(img *image.Image, opts LoadOptions) (*Domain, error) {
	sand := *img
	sand.Segments = append([]image.Segment(nil), img.Segments...)
	for i := range sand.Segments {
		sand.Segments[i].Confidential = false
		sand.Segments[i].Measured = false
	}
	opts.Seal = false
	return c.Load(&sand, opts)
}

// NewEnclave loads img as an enclave: confidential segments are granted
// exclusively (refcount 1, obliterated on revocation), measured
// segments define its identity, and the domain is sealed immediately.
// Shared segments in the manifest remain the enclave's only explicit
// communication surface — the design §4.2 contrasts with SGX's implicit
// access to all process memory.
func (c *Client) NewEnclave(img *image.Image, opts LoadOptions) (*Domain, error) {
	if opts.Cleanup == cap.CleanNone {
		opts.Cleanup = cap.CleanObfuscate
	}
	opts.Seal = true
	return c.Load(img, opts)
}

// NewKernelCompartment loads img as a driver/service compartment: its
// memory is granted exclusively (the parent kernel cannot be corrupted
// by it, and it cannot see the kernel), and the named devices are
// granted with DMA rights, making it an I/O domain whose device cannot
// DMA outside the compartment. Unsealed: the parent kernel keeps
// managing it.
func (c *Client) NewKernelCompartment(img *image.Image, devices []phys.DeviceID, opts LoadOptions) (*Domain, error) {
	opts.Devices = append(append([]phys.DeviceID(nil), opts.Devices...), devices...)
	opts.Seal = false
	return c.Load(img, opts)
}

// NewConfidentialVM loads img as a confidential virtual machine: a
// full-stack domain with exclusively granted memory AND exclusively
// granted cores (no core-level co-residency: the cache/TLB flush
// revocation policy plus exclusive cores is the §4.1 side-channel
// stance), sealed so the platform owner can attest it.
func (c *Client) NewConfidentialVM(img *image.Image, cores []phys.CoreID, opts LoadOptions) (*Domain, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("libtyche: a confidential VM needs at least one exclusive core")
	}
	opts.Cores = cores
	opts.ExclusiveCores = true
	if opts.Cleanup == cap.CleanNone {
		opts.Cleanup = cap.CleanObfuscate
	}
	opts.Seal = true
	return c.Load(img, opts)
}

// Channel is an attested shared-memory communication region between the
// owning client's domain and a peer (Figure 2's "attestable shared
// memory"): the peer sees it at refcount 2, and both sides can confirm
// via attestation that *only* the two of them map it.
type Channel struct {
	c        *Client
	region   phys.Region
	peerNode cap.NodeID
}

// OpenChannel allocates pages from the client's heap and shares them
// read-write with peer.
func (c *Client) OpenChannel(peer core.DomainID, pages uint64, cleanup cap.Cleanup) (*Channel, error) {
	if c.heap == nil {
		return nil, ErrNoHeap
	}
	r, err := c.heap.Alloc(pages)
	if err != nil {
		return nil, err
	}
	node, err := c.mon.Share(c.self, c.heapNode, peer, cap.MemResource(r), cap.MemRW, cleanup)
	if err != nil {
		c.heap.Free(r)
		return nil, err
	}
	return &Channel{c: c, region: r, peerNode: node}, nil
}

// Region returns the channel's physical region.
func (ch *Channel) Region() phys.Region { return ch.region }

// RefCount returns the channel region's live reference count; 2 means
// "exactly us and the peer".
func (ch *Channel) RefCount() int {
	max := 0
	for _, rc := range ch.c.mon.RefCounts() {
		if rc.Region.Overlaps(ch.region) && rc.Count > max {
			max = rc.Count
		}
	}
	return max
}

// Write stores into the channel as the owning domain.
func (ch *Channel) Write(off uint64, data []byte) error {
	return ch.c.mon.CopyInto(ch.c.self, ch.region.Start+phys.Addr(off), data)
}

// Read loads from the channel as the owning domain.
func (ch *Channel) Read(off, n uint64) ([]byte, error) {
	return ch.c.mon.CopyFrom(ch.c.self, ch.region.Start+phys.Addr(off), n)
}

// WriteAs stores into the channel as dom; the capability system decides
// whether dom may (only the two endpoints can).
func (ch *Channel) WriteAs(dom core.DomainID, off uint64, data []byte) error {
	return ch.c.mon.CopyInto(dom, ch.region.Start+phys.Addr(off), data)
}

// ReadAs loads from the channel as dom.
func (ch *Channel) ReadAs(dom core.DomainID, off, n uint64) ([]byte, error) {
	return ch.c.mon.CopyFrom(dom, ch.region.Start+phys.Addr(off), n)
}

// Close revokes the peer's mapping (running its cleanup policy) and
// returns the region to the owner's heap.
func (ch *Channel) Close() error {
	if err := ch.c.mon.Revoke(ch.c.self, ch.peerNode); err != nil {
		return err
	}
	return ch.c.heap.Free(ch.region)
}
