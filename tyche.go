// Package tyche is a from-scratch implementation of the isolation
// monitor proposed in "Creating Trust by Abolishing Hierarchies"
// (HotOS '23): a minimal, attestable security layer that separates the
// powers of isolation — any software defines policies (legislative),
// the monitor alone enforces them (executive), and a TPM-anchored
// attestation chain lets third parties verify them (judiciary).
//
// Because a garbage-collected Go runtime cannot run bare metal, the
// monitor runs over a simulated commodity machine (cores with a small
// deterministic ISA, EPT/PMP access control, IOMMU, TPM, cycle cost
// model); every memory, device, and control-transfer operation is
// enforced exactly as the paper's hardware mechanisms would, so domain
// code really faults when it oversteps and all attestation crypto is
// real (SHA-256, Ed25519, X25519).
//
// The quickest way in:
//
//	p, _ := tyche.NewPlatform(tyche.Options{})
//	enclave, _ := p.Dom0.NewEnclave(img, opts)
//	report, _ := enclave.Attest(nonce)
//
// See examples/ for complete programs and internal/bench for the
// paper's experiments.
package tyche

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/attest"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/dist"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/image"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/oskit"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
)

// Re-exported core types. The aliases are the public API; internal
// packages stay internal so the import graph of downstream users is
// exactly this package.
type (
	// Monitor is the isolation monitor controlling one machine.
	Monitor = core.Monitor
	// DomainID identifies a trust domain.
	DomainID = core.DomainID
	// Report is a signed domain attestation.
	Report = core.Report
	// ResourceRecord is one attested resource with its reference count.
	ResourceRecord = core.ResourceRecord
	// Client issues monitor calls as one domain (libtyche).
	Client = libtyche.Client
	// Domain is a handle on a loaded domain.
	Domain = libtyche.Domain
	// LoadOptions tunes Client.Load.
	LoadOptions = libtyche.LoadOptions
	// Channel is an attested shared-memory channel.
	Channel = libtyche.Channel
	// Image is a loadable domain image with a manifest.
	Image = image.Image
	// Segment is one image segment with isolation policy.
	Segment = image.Segment
	// Machine is the simulated hardware.
	Machine = hw.Machine
	// Asm builds programs for the simulated ISA.
	Asm = hw.Asm
	// Addr is a physical address.
	Addr = phys.Addr
	// Region is a physical memory interval.
	Region = phys.Region
	// CoreID names a CPU core.
	CoreID = phys.CoreID
	// DeviceID names a PCI device.
	DeviceID = phys.DeviceID
	// Rights is a capability rights mask.
	Rights = cap.Rights
	// Cleanup is a revocation policy mask.
	Cleanup = cap.Cleanup
	// Resource names a physical resource.
	Resource = cap.Resource
	// NodeID identifies a capability node.
	NodeID = cap.NodeID
	// CapInfo is a capability node snapshot.
	CapInfo = cap.Info
	// Digest is a SHA-256 measurement.
	Digest = tpm.Digest
	// TPM is the root of trust.
	TPM = tpm.TPM
	// Verifier is a remote attestation verifier.
	Verifier = attest.Verifier
	// Session is an established verification session.
	Session = attest.Session
	// OS is the miniature guest OS kit.
	OS = oskit.OS
	// RunResult reports why a core stopped.
	RunResult = core.RunResult
	// RemoteEndpoint is one side of a cross-machine attested channel.
	RemoteEndpoint = dist.Endpoint
	// RemoteWire is the untrusted interconnect between machines.
	RemoteWire = dist.Wire
	// RemoteConn is an established attested channel.
	RemoteConn = dist.Conn
	// IRQ is a device interrupt.
	IRQ = hw.IRQ
	// IRQHandler is a domain's interrupt handler.
	IRQHandler = core.IRQHandler
)

// Re-exported rights, cleanup policies, and backends.
const (
	RightRead  = cap.RightRead
	RightWrite = cap.RightWrite
	RightExec  = cap.RightExec
	RightRun   = cap.RightRun
	RightUse   = cap.RightUse
	RightDMA   = cap.RightDMA
	RightShare = cap.RightShare
	RightGrant = cap.RightGrant
	MemRW      = cap.MemRW
	MemRX      = cap.MemRX
	MemRWX     = cap.MemRWX

	CleanNone       = cap.CleanNone
	CleanZero       = cap.CleanZero
	CleanFlushCache = cap.CleanFlushCache
	CleanFlushTLB   = cap.CleanFlushTLB
	CleanObfuscate  = cap.CleanObfuscate

	// BackendVTX selects the x86_64-style backend (EPT/VMCall/VMFUNC).
	BackendVTX = core.BackendVTX
	// BackendPMP selects the RISC-V-style machine-mode backend.
	BackendPMP = core.BackendPMP

	// InitialDomain is dom0's ID.
	InitialDomain = core.InitialDomain

	// PageSize is the access-control granularity.
	PageSize = phys.PageSize
)

// Re-exported constructors and helpers.
var (
	// NewAsm returns a program builder.
	NewAsm = hw.NewAsm
	// NewProgram builds a single-.text image; chain With* builders.
	NewProgram = image.NewProgram
	// DecodeImage parses a serialized image.
	DecodeImage = image.Decode
	// NewClient returns a libtyche client acting as a domain.
	NewClient = libtyche.New
	// DefaultLoadOptions returns Load's defaults.
	DefaultLoadOptions = libtyche.DefaultLoadOptions
	// NewVerifier builds a remote verifier from a TPM endorsement key
	// and trusted monitor identities.
	NewVerifier = attest.NewVerifier
	// VerifyReport checks a report signature (integrity only; use a
	// Session for the full chain).
	VerifyReport = core.VerifyReport
	// NewOS boots the miniature OS kit inside a domain.
	NewOS = oskit.New
	// NewOSWithClient boots the OS kit over an existing client.
	NewOSWithClient = oskit.NewWithClient
	// Measure hashes bytes into a Digest.
	Measure = tpm.Measure
	// MakeRegion builds [start, start+size).
	MakeRegion = phys.MakeRegion
	// MemResource names a memory region resource.
	MemResource = cap.MemResource
	// CoreResource names a core resource.
	CoreResource = cap.CoreResource
	// DeviceResource names a device resource.
	DeviceResource = cap.DeviceResource
	// DefaultMonitorIdentity is the measured monitor binary.
	DefaultMonitorIdentity = core.DefaultIdentity
	// ConnectRemote establishes an attested cross-machine channel.
	ConnectRemote = dist.Connect
)

// Attestation policy predicates (judiciary side).
var (
	RequireSealed          = attest.RequireSealed
	RequireMeasurement     = attest.RequireMeasurement
	RequireExclusiveMemory = attest.RequireExclusiveMemory
	RequireSharedOnlyWith  = attest.RequireSharedOnlyWith
	RequireExclusiveCore   = attest.RequireExclusiveCore
	// AuditDeployment verifies the closed-world sharing graph over a
	// set of verified reports (multi-domain attestation).
	AuditDeployment = attest.AuditDeployment
)

// SharingEdge is one attested communication path in a deployment audit.
type SharingEdge = attest.Edge

// DeviceSpec describes a PCI device for Options.
type DeviceSpec struct {
	Name string
	// Class is "accelerator", "nic", "storage", or "" (generic).
	Class string
}

// Options configures NewPlatform. The zero value is a sensible small
// machine: 32 MiB, 4 cores, a GPU and a NIC, VT-x backend.
type Options struct {
	// MemBytes is physical memory (default 32 MiB).
	MemBytes uint64
	// Cores is the CPU count (default 4).
	Cores int
	// PMPEntries is the per-core PMP budget (default 16).
	PMPEntries int
	// Backend selects enforcement (BackendVTX default).
	Backend core.BackendKind
	// Devices lists PCI devices (default: gpu0 + nic0).
	Devices []DeviceSpec
	// MonitorIdentity overrides the measured monitor binary.
	MonitorIdentity []byte
}

// dom0ReservePages keeps low pages out of dom0's heap for its own text;
// dom0's idle text is placed at page 4.
const dom0ReservePages = 16

// Platform is a booted machine: hardware, TPM, monitor, and a dom0
// client ready to create domains. Dom0 idles on core 0.
type Platform struct {
	Machine *Machine
	TPM     *TPM
	Monitor *Monitor
	// Dom0 is the initial domain's libtyche client, with a heap over
	// the domain's free memory.
	Dom0 *Client
}

func classOf(s string) hw.DeviceClass {
	switch s {
	case "accelerator":
		return hw.DevAccelerator
	case "nic":
		return hw.DevNIC
	case "storage":
		return hw.DevStorage
	default:
		return hw.DevGeneric
	}
}

// NewPlatform builds and boots a complete platform.
func NewPlatform(o Options) (*Platform, error) {
	if o.MemBytes == 0 {
		o.MemBytes = 32 << 20
	}
	if o.Cores == 0 {
		o.Cores = 4
	}
	if o.Devices == nil {
		o.Devices = []DeviceSpec{{Name: "gpu0", Class: "accelerator"}, {Name: "nic0", Class: "nic"}}
	}
	devs := make([]hw.DeviceConfig, len(o.Devices))
	for i, d := range o.Devices {
		devs[i] = hw.DeviceConfig{Name: d.Name, Class: classOf(d.Class)}
	}
	mach, err := hw.NewMachine(hw.Config{
		MemBytes:            o.MemBytes,
		NumCores:            o.Cores,
		PMPEntries:          o.PMPEntries,
		IOMMUAllowByDefault: true, // the monitor flips it at boot
		Devices:             devs,
	})
	if err != nil {
		return nil, err
	}
	rot, err := tpm.New(nil)
	if err != nil {
		return nil, err
	}
	mon, err := core.Boot(core.BootConfig{
		Machine:  mach,
		TPM:      rot,
		Backend:  o.Backend,
		Identity: o.MonitorIdentity,
	})
	if err != nil {
		return nil, err
	}
	cl := libtyche.New(mon, core.InitialDomain)
	if err := cl.AutoHeap(dom0ReservePages); err != nil {
		return nil, err
	}
	// Minimal dom0 "kernel": an idle loop at page 4, launched on core 0
	// so dom0 can host mediated calls.
	idle := hw.NewAsm()
	idle.Hlt()
	entry := phys.Addr(4 * phys.PageSize)
	if err := mon.CopyInto(core.InitialDomain, entry, idle.MustAssemble(entry)); err != nil {
		return nil, err
	}
	if err := mon.SetEntry(core.InitialDomain, core.InitialDomain, entry); err != nil {
		return nil, err
	}
	if err := mon.Launch(core.InitialDomain, 0); err != nil {
		return nil, err
	}
	if _, err := mon.RunCore(0, 10); err != nil {
		return nil, err
	}
	return &Platform{Machine: mach, TPM: rot, Monitor: mon, Dom0: cl}, nil
}

// HostDom0 makes dom0 current on the given core too (for invoking
// service domains from additional cores).
func (p *Platform) HostDom0(c CoreID) error {
	if err := p.Monitor.Launch(core.InitialDomain, c); err != nil {
		return err
	}
	_, err := p.Monitor.RunCore(c, 10)
	return err
}

// Verifier returns a remote verifier trusting this platform's TPM and
// the monitor identity it booted with — the starting point of the
// judiciary chain. (A real remote verifier gets the endorsement key
// from the TPM manufacturer and the identity from the monitor vendor.)
func (p *Platform) Verifier() *Verifier {
	return attest.NewVerifier(p.TPM.EndorsementKey(), p.Monitor.Identity())
}

// VerifySession runs tier-one verification (boot quote) and returns a
// session for verifying domain reports.
func (p *Platform) VerifySession(nonce []byte) (*Session, error) {
	quote, err := p.Monitor.BootQuote(nonce)
	if err != nil {
		return nil, err
	}
	return p.Verifier().NewSession(quote, nonce)
}

// Cycles returns the machine's cycle counter (the simulated cost
// clock).
func (p *Platform) Cycles() uint64 { return p.Machine.Clock.Cycles() }

// String summarises the platform.
func (p *Platform) String() string {
	return fmt.Sprintf("tyche platform: %d MiB, %d cores, backend=%s, %d devices",
		p.Machine.Mem.Size()>>20, len(p.Machine.Cores), p.Monitor.Backend(), len(p.Machine.Devices))
}
