package libtyche

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/image"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
)

// LoadOptions tunes Load.
type LoadOptions struct {
	// Name overrides the image name for the domain.
	Name string
	// Cores the new domain may run on. Shared by default; granted
	// exclusively when ExclusiveCores is set (side-channel mitigation:
	// "ensuring exclusive access to a CPU core", §4.1).
	Cores          []phys.CoreID
	ExclusiveCores bool
	// Devices granted to the domain with DMA rights (I/O domains).
	Devices []phys.DeviceID
	// Seal the domain after loading.
	Seal bool
	// Cleanup applied to confidential grants (CleanObfuscate default).
	Cleanup cap.Cleanup
	// FastPathCore, when >= 0, registers a VMFUNC fast path between the
	// creator and the new domain on that core. Set to -1 to disable.
	FastPathCore phys.CoreID
}

// DefaultLoadOptions returns the options Load assumes for zero values.
func DefaultLoadOptions() LoadOptions {
	return LoadOptions{Cleanup: cap.CleanObfuscate, FastPathCore: -1}
}

// Domain is a handle on a domain this client created by loading an
// image.
type Domain struct {
	c  *Client
	id core.DomainID

	base       phys.Addr
	placements []image.Placement
	// memNodes maps segment name to the capability node the new domain
	// received for it.
	memNodes    map[string]cap.NodeID
	measurement tpm.Digest
	sealed      bool
}

// ID returns the domain's identity.
func (d *Domain) ID() core.DomainID { return d.id }

// Base returns the load address.
func (d *Domain) Base() phys.Addr { return d.base }

// Measurement returns the seal-time measurement (zero until sealed).
func (d *Domain) Measurement() tpm.Digest { return d.measurement }

// SegmentRegion returns the physical region a named segment was loaded
// at.
func (d *Domain) SegmentRegion(name string) (phys.Region, bool) {
	for _, p := range d.placements {
		if p.Segment.Name == name {
			return p.Region, true
		}
	}
	return phys.Region{}, false
}

// SegmentNode returns the capability node the domain holds for a
// segment.
func (d *Domain) SegmentNode(name string) (cap.NodeID, bool) {
	n, ok := d.memNodes[name]
	return n, ok
}

// Client returns a libtyche client acting as this domain — the hook for
// nesting: the domain can load its own children from its own memory.
func (d *Domain) Client() *Client {
	return New(d.c.mon, d.id)
}

// Attest returns the domain's signed report.
func (d *Domain) Attest(nonce []byte) (*core.Report, error) {
	return d.c.mon.Attest(d.id, nonce)
}

// Seal seals the domain now (for callers that loaded with Seal=false
// and then added shared state).
func (d *Domain) Seal() (tpm.Digest, error) {
	meas, err := d.c.mon.Seal(d.c.self, d.id)
	if err != nil {
		return tpm.Digest{}, err
	}
	d.measurement = meas
	d.sealed = true
	return meas, nil
}

// Kill destroys the domain; its memory is cleaned per segment policy
// and returns to the creator's heap.
func (d *Domain) Kill() error {
	if err := d.c.mon.KillDomain(d.c.self, d.id); err != nil {
		return err
	}
	footprint := phys.Region{Start: d.base, End: d.placements[len(d.placements)-1].Region.End}
	return d.c.heap.Free(footprint)
}

// Launch starts the domain on a core.
func (d *Domain) Launch(c phys.CoreID) error { return d.c.mon.Launch(d.id, c) }

// Invoke performs a mediated call into the domain from the creator's
// current context on the core and runs until it returns or halts,
// returning the callee's r1 result. The creator must already be running
// on the core (Call semantics, §3.1).
func (d *Domain) Invoke(c phys.CoreID, budget int, args ...uint64) (uint64, error) {
	mon := d.c.mon
	mach := mon.Machine()
	cpu := mach.Core(c)
	if cpu == nil {
		return 0, fmt.Errorf("libtyche: no core %v", c)
	}
	if len(args) > 4 {
		return 0, fmt.Errorf("libtyche: at most 4 arguments (r2..r5), got %d", len(args))
	}
	// Arguments travel in r2..r5 (r0/r1 are the ABI call registers).
	for i, a := range args {
		cpu.Regs[2+i] = a
	}
	if err := mon.Call(c, d.id); err != nil {
		return 0, err
	}
	res, err := mon.RunCore(c, budget)
	if err != nil {
		return 0, err
	}
	if res.Trap.Kind == hw.TrapFault || res.Trap.Kind == hw.TrapIllegal {
		return 0, fmt.Errorf("libtyche: domain %d trapped: %v", res.Domain, res.Trap)
	}
	return cpu.Regs[1], nil
}

// BuildAt constructs an image whose text is assembled against its final
// load address (for programs with absolute jump targets): gen receives
// the text base, extras mutate the image (adding segments), and the
// returned image must be loaded immediately (it is assembled against
// the next allocation the client's heap will hand out).
func (c *Client) BuildAt(name string, gen func(base phys.Addr) *hw.Asm, extras ...func(*image.Image)) (*image.Image, error) {
	if c.heap == nil {
		return nil, ErrNoHeap
	}
	build := func(base phys.Addr) (*image.Image, error) {
		code, err := gen(base).Assemble(base)
		if err != nil {
			return nil, err
		}
		img := image.NewProgram(name, code)
		for _, ex := range extras {
			ex(img)
		}
		return img, nil
	}
	// Pass 1: size the image with a dummy base.
	probe, err := build(0)
	if err != nil {
		return nil, err
	}
	at, err := c.heap.Peek(probe.TotalPages())
	if err != nil {
		return nil, err
	}
	return build(at.Start)
}

// Load builds a trust domain from an image: allocates memory from the
// client's heap, writes segment contents, delegates each segment per
// its manifest policy (confidential → grant, shared → share), wires
// cores/devices, sets the entry point, measures, and optionally seals.
func (c *Client) Load(img *image.Image, opts LoadOptions) (*Domain, error) {
	if c.heap == nil {
		return nil, ErrNoHeap
	}
	if opts.Cleanup == cap.CleanNone {
		opts.Cleanup = cap.CleanObfuscate
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	block, err := c.heap.Alloc(img.TotalPages())
	if err != nil {
		return nil, err
	}
	placements, err := img.Layout(block.Start)
	if err != nil {
		c.heap.Free(block)
		return nil, err
	}
	name := opts.Name
	if name == "" {
		name = img.Name
	}
	id, err := c.mon.CreateDomain(c.self, name)
	if err != nil {
		c.heap.Free(block)
		return nil, err
	}
	d := &Domain{
		c: c, id: id, base: block.Start, placements: placements,
		memNodes: make(map[string]cap.NodeID),
	}
	fail := func(err error) (*Domain, error) {
		// Best-effort teardown; the domain may hold grants already.
		_ = c.mon.KillDomain(c.self, id)
		_ = c.heap.Free(block)
		return nil, err
	}

	// Write contents while the creator still has access.
	for _, p := range placements {
		if len(p.Segment.Data) > 0 {
			if err := c.Write(p.Region.Start, p.Segment.Data); err != nil {
				return fail(fmt.Errorf("libtyche: writing %q: %w", p.Segment.Name, err))
			}
		}
	}
	// Delegate segments.
	entryRing := hw.RingKernel
	var userFilter *hw.EPT
	for _, p := range placements {
		res := cap.MemResource(p.Region)
		rights := p.Segment.Rights
		var node cap.NodeID
		if p.Segment.Confidential {
			// A domain may always subdivide what it exclusively owns —
			// that is what lets enclaves map libtyche and spawn nested
			// enclaves from their own memory (§4.2). Sharing onward is
			// visible to verifiers through reference counts.
			rights |= cap.RightShare | cap.RightGrant
			node, err = c.mon.Grant(c.self, c.heapNode, id, res, rights, opts.Cleanup)
		} else {
			node, err = c.mon.Share(c.self, c.heapNode, id, res, rights, cap.CleanZero)
		}
		if err != nil {
			return fail(fmt.Errorf("libtyche: delegating %q: %w", p.Segment.Name, err))
		}
		d.memNodes[p.Segment.Name] = node
		if p.Segment.Ring == hw.RingUser {
			if userFilter == nil {
				userFilter = hw.NewEPT()
			}
			// Ring-3 code sees only user segments through the domain's
			// first-level filter.
			if err := userFilter.Map(p.Region, segPerm(p.Segment)); err != nil {
				return fail(err)
			}
			if p.Segment.Name == img.EntrySegment {
				entryRing = hw.RingUser
			}
		}
	}
	// Cores.
	for _, coreID := range opts.Cores {
		cn, err := c.coreNode(coreID)
		if err != nil {
			return fail(err)
		}
		// Cores carry delegation rights onward so nested children can be
		// scheduled; core sharing is visible through CoreRefCount.
		if opts.ExclusiveCores {
			_, err = c.mon.Grant(c.self, cn, id, cap.CoreResource(coreID), cap.CoreFull, cap.CleanFlushCache|cap.CleanFlushTLB)
		} else {
			_, err = c.mon.Share(c.self, cn, id, cap.CoreResource(coreID), cap.RightRun|cap.RightShare, cap.CleanFlushCache)
		}
		if err != nil {
			return fail(err)
		}
	}
	// Devices (I/O domains get DMA).
	for _, devID := range opts.Devices {
		dn, err := c.deviceNode(devID)
		if err != nil {
			return fail(err)
		}
		// Full rights: granted devices can be delegated onward (e.g. a
		// VM re-granting its GPU to a nested I/O domain).
		if _, err := c.mon.Grant(c.self, dn, id, cap.DeviceResource(devID), cap.DeviceFull, cap.CleanNone); err != nil {
			return fail(err)
		}
	}
	// Entry, ring, measurement.
	entry, err := img.Entry(block.Start)
	if err != nil {
		return fail(err)
	}
	if err := c.mon.SetEntry(c.self, id, entry); err != nil {
		return fail(err)
	}
	if entryRing != hw.RingKernel {
		if err := c.mon.SetEntryRing(c.self, id, entryRing); err != nil {
			return fail(err)
		}
	}
	if userFilter != nil {
		for _, coreID := range opts.Cores {
			ctx, err := c.mon.DomainContext(c.self, id, coreID)
			if err != nil {
				return fail(err)
			}
			ctx.OSFilter = userFilter
		}
	}
	for _, p := range placements {
		if !p.Segment.Measured {
			continue
		}
		if err := c.mon.AddMeasuredRegion(c.self, id, p.Region); err != nil {
			return fail(err)
		}
	}
	if opts.FastPathCore >= 0 {
		if err := c.mon.RegisterFastPath(c.self, c.self, id, opts.FastPathCore); err != nil {
			return fail(err)
		}
	}
	if opts.Seal {
		if _, err := d.Seal(); err != nil {
			return fail(err)
		}
	}
	return d, nil
}

func segPerm(s *image.Segment) hw.Perm {
	var p hw.Perm
	if s.Rights.Has(cap.RightRead) {
		p |= hw.PermR
	}
	if s.Rights.Has(cap.RightWrite) {
		p |= hw.PermW
	}
	if s.Rights.Has(cap.RightExec) {
		p |= hw.PermX
	}
	return p
}
