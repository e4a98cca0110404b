// Package core implements the isolation monitor — the paper's primary
// contribution (§3): a minimal security layer that is the sole executive
// power over isolation. It exposes a narrow API with which any software,
// regardless of privilege, defines isolation policies (legislative), and
// it emits signed attestations anchored in a TPM so third parties can
// verify system-wide invariants (judiciary).
//
// The monitor deliberately does not manage resources: it validates
// sharing, granting, and revocation of physical names (memory regions,
// cores, devices) proposed by domains, translates them to hardware state
// through a backend, and mediates every inter-domain control transfer
// (§3.5: "the monitor does not choose resources to allocate to a domain,
// but rather validates allocation").
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
)

// DomainID identifies a trust domain. It doubles as the capability
// owner ID: the monitor is the only writer of the capability space, and
// domains are the only owners.
type DomainID = cap.OwnerID

// MonitorDomain is the monitor's own identity: owner of the reserved
// monitor memory, never schedulable.
const MonitorDomain DomainID = 0

// InitialDomain is the first domain, created at boot with every
// non-reserved resource — the role Linux plays on real Tyche ("Tyche
// boots on bare metal and runs an unmodified Ubuntu distribution and
// Linux kernel as an initial domain", §4).
const InitialDomain DomainID = 1

// DomainState is a trust domain's lifecycle state.
type DomainState int

// Domain states.
const (
	// StateActive domains can receive resources and be reconfigured.
	StateActive DomainState = iota
	// StateSealed domains have a frozen resource set and a fixed
	// measurement; they are runnable and attestable.
	StateSealed
	// StateDead domains have been killed; all their capabilities are
	// revoked and their ID is never reused.
	StateDead
)

var domainStateNames = [...]string{"active", "sealed", "dead"}

func (s DomainState) String() string {
	if int(s) < len(domainStateNames) {
		return domainStateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// SyscallHandler is the Go-level stand-in for a domain's ring-0 trap
// handler: when interpreted code inside the domain executes SYSCALL,
// the monitor-run execution loop dispatches here. The handler may
// inspect and modify the trapping core's registers.
type SyscallHandler func(c *hw.Core) error

// Domain is the monitor's record of one trust domain (§3.1: "a trust
// domain is an identity associated with a set of access rights to
// physical resources").
//
// Concurrency: id, name, and creator are immutable after creation. The
// lifecycle state is atomic so the lock-free read path (liveness checks,
// Domains(), VMCall dispatch) observes it without a lock. Everything
// else — entry point, measured regions, handlers, report data, log —
// is guarded by mu, the per-domain mutex in the monitor's lock order
// (below revMu/tabMu and coreSched.mu, above hwMu and the
// capability-space locks).
type Domain struct {
	id      DomainID
	name    string
	creator DomainID
	state   atomic.Int32 // DomainState; zero value is StateActive

	// mu guards the mutable fields below. The monitor also holds it
	// while rebuilding this domain's hardware state (backend SyncDomain)
	// so rebuilds for one domain are serialised.
	mu sync.Mutex

	entry     phys.Addr
	entrySet  bool
	entryRing hw.Ring

	// measured lists the regions whose initial content is folded into
	// the measurement at seal time, per the libtyche manifest ("whether
	// ... their content is part of the attestation or not", §4.2).
	measured    []phys.Region
	measurement tpm.Digest

	syscall SyscallHandler
	irq     IRQHandler

	// reportData is a domain-chosen value included (signed) in its
	// attestation reports — the SGX REPORTDATA analogue. Domains bind
	// runtime material (e.g. a key-exchange public key) to their
	// attested identity with it.
	reportData tpm.Digest

	// logbuf collects values written via the guest LOG hypercall; tests
	// and examples read it as the domain's "console".
	logbuf []uint64

	// vcpus are the domain's vCPU contexts (vcpu.go), indexed by
	// VCPU.Index; they die with the domain.
	vcpus []*vcpu
}

// ID returns the domain's identity.
func (d *Domain) ID() DomainID { return d.id }

// Name returns the human-readable name (not part of the TCB).
func (d *Domain) Name() string { return d.name }

// Creator returns the domain that created this one.
func (d *Domain) Creator() DomainID { return d.creator }

// State returns the lifecycle state (atomic, lock-free).
func (d *Domain) State() DomainState { return DomainState(d.state.Load()) }

// setState publishes a lifecycle transition. StateDead is absorbing:
// once a kill has published death, a configuration reader that
// validated liveness just before (e.g. an epoch-pinned seal) must not
// resurrect the domain by storing over it — the CAS loop makes the
// late writer lose.
func (d *Domain) setState(s DomainState) {
	for {
		old := d.state.Load()
		if DomainState(old) == StateDead {
			return
		}
		if d.state.CompareAndSwap(old, int32(s)) {
			return
		}
	}
}

// Entry returns the fixed entry point (valid once set).
func (d *Domain) Entry() (phys.Addr, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.entry, d.entrySet
}

// EntryRing returns the privilege ring execution enters the domain in.
func (d *Domain) EntryRing() hw.Ring {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.entryRing
}

// Measurement returns the measurement computed at seal time; the zero
// digest before sealing.
func (d *Domain) Measurement() tpm.Digest {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.measurement
}

// ReportData returns the domain-chosen report data.
func (d *Domain) ReportData() tpm.Digest {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reportData
}

// Log returns the values the domain logged via the LOG hypercall.
func (d *Domain) Log() []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]uint64, len(d.logbuf))
	copy(out, d.logbuf)
	return out
}

func (d *Domain) String() string {
	return fmt.Sprintf("domain%d(%s,%v)", d.id, d.name, d.State())
}
