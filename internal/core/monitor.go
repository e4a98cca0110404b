package core

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/tyche-sim/tyche/internal/backend"
	pmpbk "github.com/tyche-sim/tyche/internal/backend/pmp"
	"github.com/tyche-sim/tyche/internal/backend/vtx"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
	"github.com/tyche-sim/tyche/internal/trace"
)

// BackendKind selects the enforcement backend at boot.
type BackendKind string

// Supported backends.
const (
	// BackendVTX is the x86_64 backend: EPT + VMCall + VMFUNC + IOMMU.
	BackendVTX BackendKind = "vtx"
	// BackendPMP is the RISC-V machine-mode backend: per-core PMP.
	BackendPMP BackendKind = "pmp"
)

// DefaultMonitorReserve is the physical memory the monitor keeps for
// itself at the top of the address space (self-protection).
const DefaultMonitorReserve = 1 << 20

// DefaultIdentity is the monitor "binary" measured at boot when the
// caller provides none. Changing the monitor implementation changes
// this blob, and therefore the PCR value remote verifiers compare
// against.
var DefaultIdentity = []byte("tyche-isolation-monitor-go/v1.0 capability-engine=tree refcounts=exact")

// BootConfig describes the platform the monitor boots on.
type BootConfig struct {
	// Machine is the hardware (required).
	Machine *hw.Machine
	// TPM is the root of trust (required).
	TPM *tpm.TPM
	// Backend selects enforcement ("vtx" default).
	Backend BackendKind
	// Identity is the monitor binary measured into the TPM
	// (DefaultIdentity if nil).
	Identity []byte
}

// Stats counts monitor-visible events for the experiment harness.
type Stats struct {
	VMExits      uint64 // traps into the monitor (calls, faults routed)
	Transitions  uint64 // mediated domain switches
	FastSwitches uint64
	Syscalls     uint64 // intra-domain ring crossings observed
	CapOps       uint64 // capability mutations via the API
	Revocations  uint64 // revoke operations
	Attests      uint64 // attestation reports produced
	DeniedOps    uint64 // API calls rejected by validation
	IRQsRouted   uint64 // device interrupts delivered by capability
	IRQsDropped  uint64 // interrupts with no capable receiver

	// Fault containment (contain.go).
	MachineChecks uint64 // hardware machine-check traps taken
	ForcedKills   uint64 // domains destroyed by the containment path
	PagesScrubbed uint64 // pages zeroed while reclaiming dead domains
	CoresParked   uint64 // cores taken out of scheduling after a fault

	// Batched ABI rings (ring.go; all zero until a ring is set up).
	RingOps          uint64 // descriptors executed via submission rings
	RingFlushes      uint64 // non-empty ring drains (batches)
	RingShootdowns   uint64 // coalesced cross-core rounds those drains ran
	RingOpsCoalesced uint64 // logical shootdowns absorbed into those rounds
	RingDrainErrors  uint64 // drain failures a round could not hand to a caller

	// Always zero; kept for benchmark/ until ROADMAP's benchmark queue (iv).
	TransCacheHits   uint64
	TransCacheMisses uint64

	// Attested live migration (migrate.go).
	MigrationsOut uint64 // domain snapshots captured for departure
	MigrationsIn  uint64 // domains restored (and re-attested) on arrival
}

// domainTable is the domain index: entry i is domain InitialDomain+i.
// IDs are dense and domains never leave it — death is a state
// transition, observed through Domain.State.
type domainTable []*Domain

// get returns domain id, or false if it was never created.
func (t domainTable) get(id DomainID) (*Domain, bool) {
	if i := uint64(id - InitialDomain); i < uint64(len(t)) {
		return t[i], true
	}
	return nil, false
}

// coreSched is one core's scheduling state: the mediated call stack and
// the monitor's notion of the current domain.
type coreSched struct {
	frames []DomainID
	cur    DomainID
	hasCur bool
	vcpu   VCPU // the vCPU last dispatched here (none after Launch)
}

// Monitor is the isolation monitor instance controlling one machine.
//
// A monitor is one goroutine's object, like the machine it drives: every
// entry — the API, RunCore and RunCores, the ring drains — runs on its
// caller's goroutine, one at a time, and holds no lock. RunCores steps
// several cores on that one goroutine; simulated multi-core
// interleaving lives in simulated time, where the trace checkers see
// every step. Separate monitors (separate machines) share nothing and
// may run on separate goroutines.
//
// The destructive family (Revoke, KillDomain, ForceKill, containFault,
// ring drains) keeps one order in plain program order: publish the
// removal (capability-subtree detach, death state), then the
// irreversible effects (cleanups, scrub, shootdown, release of the
// detached records), then the hardware resync — all of it inside the
// entry. Go-level syscall and IRQ handlers re-enter the monitor through
// the public API like any caller.
type Monitor struct {
	mach  *hw.Machine
	space *cap.Space
	bk    backend.Backend
	rot   *tpm.TPM

	identity  []byte
	monRegion phys.Region

	tab domainTable

	// opTok mints trace-frame tokens: KOpBegin/KOpEnd pairs carry one in
	// their Node field so the checker can match each frame's ends.
	opTok uint64

	attPriv ed25519.PrivateKey
	attPub  ed25519.PublicKey

	// sched holds per-core scheduling state, built at boot.
	sched map[phys.CoreID]*coreSched
	// vcpus counts the vCPUs of live domains (vcpu.go).
	vcpus int

	// memKeys maps domains to their MKTME keys (empty when the machine
	// has no engine).
	memKeys map[DomainID]hw.KeyID

	// rings is the submission-ring registry (ring.go).
	rings map[DomainID]*domainRing

	// firstDrainErr latches the first drain failure a round could not
	// hand to a caller, so tests and embedders can observe what
	// Stats().RingDrainErrors only counts.
	firstDrainErr error

	// checkpoint, when installed (SetCheckpoint), runs at the monitor's
	// quiescent points: round barriers (RunCores completion, and
	// Checkpoint calls of management code driving its own rounds) and
	// ring-drain doorbells. The runtime-verification service
	// (internal/rv) registers its checker's merge here: each merge
	// closes one interval of the node's digest chain.
	checkpoint func()

	stats Stats
}

// Sentinel errors of the monitor API.
var (
	ErrNoSuchDomain = errors.New("core: no such domain")
	ErrDead         = errors.New("core: domain is dead")
	ErrDenied       = errors.New("core: operation denied")
	ErrSealedState  = errors.New("core: domain is sealed")
	ErrNoEntry      = errors.New("core: domain has no entry point")
	ErrNotRunning   = errors.New("core: no domain running on core")
)

// Boot measures and starts the isolation monitor, creating the initial
// domain with every resource except the monitor's reserved memory.
//
// The sequence mirrors §3.4: the TPM measures the boot process (firmware
// then monitor) so that a verifier can later confirm "the machine is
// under the complete control of a specific monitor implementation".
func Boot(cfg BootConfig) (*Monitor, error) {
	if cfg.Machine == nil || cfg.TPM == nil {
		return nil, fmt.Errorf("core: boot requires a machine and a TPM")
	}
	identity := cfg.Identity
	if identity == nil {
		identity = DefaultIdentity
	}
	if cfg.Machine.Mem.Size() <= DefaultMonitorReserve {
		return nil, fmt.Errorf("core: %#x bytes of memory leave nothing beside the monitor's %#x", cfg.Machine.Mem.Size(), DefaultMonitorReserve)
	}
	memTop := phys.Addr(cfg.Machine.Mem.Size())
	monRegion := phys.Region{Start: memTop - DefaultMonitorReserve, End: memTop}

	m := &Monitor{
		mach:      cfg.Machine,
		space:     cap.NewSpace(),
		rot:       cfg.TPM,
		identity:  append([]byte(nil), identity...),
		monRegion: monRegion,
		sched:     make(map[phys.CoreID]*coreSched),
		memKeys:   make(map[DomainID]hw.KeyID),
		rings:     make(map[DomainID]*domainRing),
	}
	for _, c := range m.mach.CoreIDs() {
		m.sched[c] = &coreSched{}
	}

	// Measured boot: firmware, then the monitor itself (DRTM-style).
	if err := m.rot.Extend(tpm.PCRFirmware, tpm.Measure([]byte("platform-firmware/v1")), "firmware"); err != nil {
		return nil, err
	}
	if err := m.rot.Extend(tpm.PCRMonitor, tpm.Measure(identity), "isolation-monitor"); err != nil {
		return nil, err
	}

	// The monitor's attestation key: generated at boot, bound to the
	// measured boot via TPM quotes (see BootQuote).
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		return nil, fmt.Errorf("core: generating attestation key: %w", err)
	}
	m.attPub, m.attPriv = pub, priv

	// Enforcement backend.
	switch cfg.Backend {
	case BackendVTX, "":
		m.bk = vtx.New(cfg.Machine, m.space)
	case BackendPMP:
		b, err := pmpbk.New(cfg.Machine, m.space, monRegion)
		if err != nil {
			return nil, err
		}
		m.bk = b
	default:
		return nil, fmt.Errorf("core: unknown backend %q", cfg.Backend)
	}

	// Monitor self-protection: the reserved region belongs to domain 0
	// and is never delegated.
	if _, err := m.space.CreateRoot(cap.OwnerID(MonitorDomain), cap.MemResource(monRegion), cap.MemRW, cap.CleanNone); err != nil {
		return nil, err
	}

	// The monitor owns the IOMMU: deny-by-default from here on.
	m.mach.IOMMU.DefaultAllow = false

	// Initial domain: everything else.
	init := &Domain{id: InitialDomain, name: "dom0", creator: MonitorDomain}
	m.tab = domainTable{init}
	owner := cap.OwnerID(InitialDomain)
	if _, err := m.space.CreateRoot(owner, cap.MemResource(phys.Region{Start: 0, End: monRegion.Start}), cap.MemFull, cap.CleanNone); err != nil {
		return nil, err
	}
	for _, c := range m.mach.CoreIDs() {
		if _, err := m.space.CreateRoot(owner, cap.CoreResource(c), cap.CoreFull, cap.CleanNone); err != nil {
			return nil, err
		}
	}
	for _, d := range m.mach.DeviceIDs() {
		if _, err := m.space.CreateRoot(owner, cap.DeviceResource(d), cap.DeviceFull, cap.CleanNone); err != nil {
			return nil, err
		}
	}
	if err := m.bk.InstallDomain(owner); err != nil {
		return nil, err
	}
	// Every device's IOMMU context, programmed for the first time, and
	// the encryption keying.
	if err := m.resync(nil, m.mach.DeviceIDs(), phys.AllMemory); err != nil {
		return nil, err
	}
	return m, nil
}

// Machine returns the underlying hardware (examples and the OS kit
// drive cores through it; enforcement still applies on every access).
func (m *Monitor) Machine() *hw.Machine { return m.mach }

// Backend returns the enforcement backend's name.
func (m *Monitor) Backend() string { return m.bk.Name() }

// MonitorRegion returns the monitor's self-protected memory.
func (m *Monitor) MonitorRegion() phys.Region { return m.monRegion }

// Stats returns a copy of the monitor's event counters.
func (m *Monitor) Stats() Stats { return m.stats }

// LockWait always returns zero: the monitor holds no lock. It is kept
// for benchmark/, which compiles against it, until ROADMAP's benchmark
// queue (iv).
func (m *Monitor) LockWait() (time.Duration, uint64) { return 0, 0 }

// EpochStats holds the two counters benchmark/ reads; both are zero.
type EpochStats struct {
	Syncs, ElidedSyncs uint64
}

// EpochStats always returns zeros: there is no reclamation engine, a
// destructive entry runs its tail in program order. It is kept for
// benchmark/, which compiles against it, until ROADMAP's benchmark
// queue (iv).
func (m *Monitor) EpochStats() EpochStats { return EpochStats{} }

// SetCheckpoint installs fn (nil removes it) to run at the monitor's
// quiescent points: every round barrier and every ring-drain doorbell.
// It is the hook the runtime-verification service (internal/rv) uses to
// merge its checker, closing one digest interval. fn must be fast, must
// not call back into the monitor, and must never advance simulated
// cycles — checkpoints are host-side work, invisible to the cycle
// clock, which is what keeps cycle histories bit-identical with
// verification on or off.
func (m *Monitor) SetCheckpoint(fn func()) { m.checkpoint = fn }

// Checkpoint fires the installed checkpoint hook, if any. RunCores
// fires it at the end of its round; a caller driving RunSlices fires it
// at its barriers.
func (m *Monitor) Checkpoint() {
	if m.checkpoint != nil {
		m.checkpoint()
	}
}

// Identity returns the monitor binary that was measured at boot.
func (m *Monitor) Identity() []byte { return append([]byte(nil), m.identity...) }

// AttestationKey returns the monitor's public attestation key.
func (m *Monitor) AttestationKey() ed25519.PublicKey {
	out := make(ed25519.PublicKey, len(m.attPub))
	copy(out, m.attPub)
	return out
}

// Domain returns the domain record for id.
func (m *Monitor) Domain(id DomainID) (*Domain, error) {
	d, ok := m.tab.get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchDomain, id)
	}
	return d, nil
}

// Domains returns the IDs of all non-dead domains in ascending order.
func (m *Monitor) Domains() []DomainID {
	var out []DomainID
	for _, d := range m.tab {
		if d.State() != StateDead {
			out = append(out, d.id)
		}
	}
	return out
}

// liveDomain resolves id to a live domain.
func (m *Monitor) liveDomain(id DomainID) (*Domain, error) {
	d, err := m.Domain(id)
	if err != nil {
		return nil, err
	}
	if d.State() == StateDead {
		return nil, fmt.Errorf("%w: %d", ErrDead, id)
	}
	return d, nil
}

func (m *Monitor) deny(format string, args ...any) error {
	m.stats.DeniedOps++
	return fmt.Errorf("%w: %s", ErrDenied, fmt.Sprintf(format, args...))
}

// domainFor resolves id for an operation only the domain itself or its
// creator may perform: it is live, and caller is one of the two (what
// names the operation in the denial).
func (m *Monitor) domainFor(caller, id DomainID, what string) (*Domain, error) {
	d, err := m.liveDomain(id)
	if err != nil {
		return nil, err
	}
	if caller != id && caller != d.creator {
		return nil, m.deny("domain %d may not %s domain %d", caller, what, id)
	}
	return d, nil
}

// CreateDomain creates a new, empty trust domain. Any live domain may
// create children — isolation is not a privileged operation (§3.2:
// "software running in any trust domain can access the isolation
// monitor API").
//
// Creation appends to the domain table, and costs the same however many
// domains came before.
func (m *Monitor) CreateDomain(caller DomainID, name string) (DomainID, error) {
	if _, err := m.liveDomain(caller); err != nil {
		return 0, err
	}
	id := InitialDomain + DomainID(len(m.tab))
	d := &Domain{id: id, name: name, creator: caller}
	if err := m.bk.InstallDomain(cap.OwnerID(id)); err != nil {
		return 0, err
	}
	m.tab = append(m.tab, d)
	m.emit(trace.KCreate, id, uint64(caller), 0, 0, 0)
	return id, nil
}

// nodeOwnedBy validates that the capability node exists and belongs to
// owner.
func (m *Monitor) nodeOwnedBy(node cap.NodeID, owner DomainID) error {
	holder, _, _, err := m.space.NodeOwners(node)
	if err != nil {
		return err
	}
	if holder != cap.OwnerID(owner) {
		return m.deny("capability %d not owned by domain %d", node, owner)
	}
	return nil
}

// Share derives a shared child capability from caller's node for dst.
func (m *Monitor) Share(caller DomainID, node cap.NodeID, dst DomainID, sub cap.Resource, rights cap.Rights, cleanup cap.Cleanup) (cap.NodeID, error) {
	return m.delegate(caller, node, dst, sub, rights, cleanup, false)
}

// Grant transfers exclusive, revocable control of the sub-resource from
// caller's node to dst.
func (m *Monitor) Grant(caller DomainID, node cap.NodeID, dst DomainID, sub cap.Resource, rights cap.Rights, cleanup cap.Cleanup) (cap.NodeID, error) {
	return m.delegate(caller, node, dst, sub, rights, cleanup, true)
}

// delegate validates and performs one Share or Grant: the body of Share,
// Grant, their guest calls and their ring descriptors.
func (m *Monitor) delegate(caller DomainID, node cap.NodeID, dst DomainID, sub cap.Resource, rights cap.Rights, cleanup cap.Cleanup, grant bool) (cap.NodeID, error) {
	op := trace.OpShare
	if grant {
		op = trace.OpGrant
	}
	tok := m.newTok()
	m.emit(trace.KOpBegin, caller, op, tok, 0, 0)
	defer m.emit(trace.KOpEnd, caller, op, tok, 0, 0)
	if _, err := m.liveDomain(caller); err != nil {
		return 0, err
	}
	dd, err := m.liveDomain(dst)
	if err != nil {
		return 0, err
	}
	if err := m.nodeOwnedBy(node, caller); err != nil {
		return 0, err
	}
	var id cap.NodeID
	if grant {
		id, err = m.space.Grant(node, cap.OwnerID(dst), sub, rights, cleanup)
	} else {
		id, err = m.space.Share(node, cap.OwnerID(dst), sub, rights, cleanup)
	}
	if err != nil {
		m.stats.DeniedOps++
		return 0, err
	}
	m.stats.CapOps++
	kind := trace.KShare
	if grant {
		kind = trace.KGrant
	}
	var addr, size uint64
	if sub.Kind == cap.ResMemory {
		addr, size = uint64(sub.Mem.Start), sub.Mem.Size()
	}
	m.emit(kind, caller, uint64(dst), uint64(id), addr, size)
	// The owners whose access moved: the grantee, and for a grant the
	// grantor too. A share leaves the sharer's access as it was.
	// Only the delegated range moved; a core or device delegation moved
	// no memory at all.
	doms := []*Domain{dd}
	if grant && caller != dst {
		cd, _ := m.Domain(caller)
		doms = []*Domain{cd, dd}
	}
	var devs []phys.DeviceID
	var scope phys.Region
	switch sub.Kind {
	case cap.ResDevice:
		devs = []phys.DeviceID{sub.Device}
	case cap.ResMemory:
		scope = sub.Mem
	}
	if err := m.resync(doms, devs, scope); err != nil {
		return 0, err
	}
	return id, nil
}

// Revoke revokes a capability and its entire derivation subtree. The
// caller must be the delegator (owner of the parent capability) or the
// owner of the node itself (dropping its own access) — "this keeps
// management code in control despite making policy configuration
// available to all software" (§3.2).
//
// Revocation runs in two steps, and these are its only implementation —
// a ring drain round (drain.go) runs the same publish per descriptor
// and the same retire over everything it published, and a kill
// (contain.go) retires the victim's detached subtree through the same
// retire after its forced scrub:
//
//	publish  — revokePublish: Detach removes the subtree from the
//	           capability index. Grant suspensions persist, so the
//	           parents cannot re-delegate the regions yet.
//	retire   — cleanups (zero/flush + shootdowns) scrub the revoked
//	           state, Release hands the parents their access back and
//	           drops the detached records, and affected hardware is
//	           resynchronised.
//
// The KOpBegin/KOpEnd frame brackets all of it, so the trace checker's
// shootdown-ack-inside-frame and scrub ordering invariants hold.
func (m *Monitor) Revoke(caller DomainID, node cap.NodeID) error {
	tok := m.newTok()
	m.emit(trace.KOpBegin, caller, trace.OpRevoke, tok, 0, 0)
	defer m.emit(trace.KOpEnd, caller, trace.OpRevoke, tok, 0, 0)
	det, err := m.revokePublish(caller, node)
	if err != nil {
		return err
	}
	return m.retire(false, det)
}

// revokePublish authorises caller's revocation of node and publishes
// it: the detach is the only semantic commit point — no query sees the
// subtree once it returns, and the grant suspensions persist until
// retire releases them — so any number of publishes may stack up before
// one retire covers them all. It is the only caller of cap.Space.Detach.
func (m *Monitor) revokePublish(caller DomainID, node cap.NodeID) (*cap.Detached, error) {
	if _, err := m.liveDomain(caller); err != nil {
		return nil, err
	}
	holder, delegator, derived, err := m.space.NodeOwners(node)
	if err != nil {
		return nil, err
	}
	authorized := holder == cap.OwnerID(caller) || derived && delegator == cap.OwnerID(caller)
	if !authorized {
		return nil, m.deny("domain %d may not revoke capability %d", caller, node)
	}
	det, err := m.space.Detach(node)
	if err != nil {
		return nil, err
	}
	m.stats.CapOps++
	m.stats.Revocations++
	m.emit(trace.KRevoke, caller, 0, uint64(node), 0, 0)
	return det, nil
}

// retire runs the irreversible tail of published revocations, in
// order. It is the one tail of Revoke,
// a drain round and a kill. With coalesce the shootdowns the cleanups
// request retire as at most one cross-core round — the drain round's
// form, counted in the ring statistics; otherwise they run as they
// come. A subtree whose cleanups fail is never released (its parents
// stay suspended: fail closed); the rest still retire, every affected
// live owner is still resynchronised, and the first error is returned.
func (m *Monitor) retire(coalesce bool, dets ...*cap.Detached) error {
	if coalesce {
		m.mach.BeginShootdownBatch()
	}
	var firstErr error
	for i, det := range dets {
		// Seeded mutation (drainbug build tag): the round's first
		// revocation skips the coalescing — its flush cleanups run as
		// immediate, unbatched shootdown rounds inside the drain frame,
		// which the checker's cross-ring coalescing property must flag.
		escape := DrainBugArmed && coalesce && i == 0
		if escape {
			m.endShootdownBatch()
		}
		err := m.bk.ExecuteCleanups(det.Actions())
		if escape {
			m.mach.BeginShootdownBatch()
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		m.space.Release(det)
	}
	if coalesce {
		m.endShootdownBatch()
	}

	// The owners whose access the detaches changed — the owners of the
	// detached capabilities and the grantors Release handed access back
	// to — less the dead, the devices whose capabilities were among
	// those revoked, and the span of the revoked memory: no owner's view
	// moved outside it.
	var ownerBuf [8]cap.OwnerID // a revocation rarely touches more
	var domBuf [8]*Domain
	var devBuf [4]phys.DeviceID
	owners, doms, devs := ownerBuf[:0], domBuf[:0], devBuf[:0]
	var scope phys.Region
	for _, det := range dets {
		owners = append(owners, det.ParentOwners()...)
		for _, a := range det.Actions() {
			owners = append(owners, a.Owner)
			switch a.Resource.Kind {
			case cap.ResDevice:
				devs = append(devs, a.Resource.Device)
			case cap.ResMemory:
				scope = span(scope, a.Resource.Mem)
			}
		}
	}
	slices.Sort(owners)
	for _, o := range slices.Compact(owners) {
		if d, ok := m.tab.get(DomainID(o)); ok && d.State() != StateDead {
			doms = append(doms, d)
		}
	}
	if err := m.resync(doms, devs, scope); firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// span returns the smallest region covering a and b; an empty one
// covers nothing.
func span(a, b phys.Region) phys.Region {
	switch {
	case a.Empty():
		return b
	case b.Empty():
		return a
	}
	return phys.Region{Start: min(a.Start, b.Start), End: max(a.End, b.End)}
}

// newTok mints the next trace-frame token.
func (m *Monitor) newTok() uint64 {
	m.opTok++
	return m.opTok
}

// endShootdownBatch retires the armed shootdown accumulator and counts
// the round in the ring statistics.
func (m *Monitor) endShootdownBatch() {
	rounds, coalesced := m.mach.EndShootdownBatch()
	m.stats.RingShootdowns += uint64(rounds)
	m.stats.RingOpsCoalesced += uint64(coalesced)
}

// resync reprograms the hardware a capability change can have affected,
// in three steps: the filter of every domain in doms on the pages of
// scope, the IOMMU context of every device in devs or held with DMA
// rights by one of doms (in machine device order), then the encryption
// keying. It is the one resync of delegation, revocation, kill and
// boot; each caller decides which domains to list and which range
// moved — a delegation's memory, the span of a revocation's, nothing
// for a core or device — and a domain's filter is rederived there only.
// So is the context of a device a listed domain holds with DMA rights; a
// device in devs, whose holder set moved, is rederived whole. A failed
// step (a PMP layout over
// budget) must not strand the ones after it on filters that still map
// what their owners lost, so every step runs regardless and the first
// error is returned.
//
// Every rebuild reads the capability space at rebuild time, and every
// mutation is followed by a rebuild whose scope covers what it changed.
//
// The device question goes to each domain — a walk of what it holds —
// not to each device, which would sweep the whole capability index once
// per machine device. A device's filter is the union of its DMA holders'
// memory, so it can only have changed if its holder set did (the caller
// lists it in devs) or if a holder is among doms.
func (m *Monitor) resync(doms []*Domain, devs []phys.DeviceID, scope phys.Region) error {
	var firstErr error
	for _, d := range doms {
		err := m.bk.SyncDomainRange(cap.OwnerID(d.id), scope)
		if firstErr == nil {
			firstErr = err
		}
	}
	var buf [4]phys.DeviceID
	held := append(buf[:0], devs...)
	for _, d := range doms {
		held = m.space.AppendOwnerDMADevices(held, cap.OwnerID(d.id))
	}
	if len(held) > 0 {
		for _, dev := range m.mach.DeviceIDs() {
			devScope := scope
			if slices.Contains(devs, dev) {
				devScope = phys.AllMemory // its holder set moved
			} else if !slices.Contains(held, dev) {
				continue
			}
			if err := m.bk.SyncDeviceRange(dev, devScope); firstErr == nil {
				firstErr = err
			}
		}
	}
	if err := m.syncEncryption(); firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// SetEntry fixes the domain's entry point (§3.1: "domains have a fixed
// entry point"). Only the domain itself or its creator may configure it,
// and only before sealing.
func (m *Monitor) SetEntry(caller, id DomainID, entry phys.Addr) error {
	d, err := m.domainFor(caller, id, "configure")
	if err != nil {
		return err
	}
	if d.State() == StateSealed {
		return fmt.Errorf("%w: %d", ErrSealedState, id)
	}
	if !m.space.CheckMemAccess(cap.OwnerID(id), entry, cap.RightExec) {
		return m.deny("entry %v not executable by domain %d", entry, id)
	}
	d.entry = entry
	d.entrySet = true
	return nil
}

// SetEntryRing selects the privilege ring the domain is entered in
// (kernel by default; sandboxes confining untrusted payloads enter in
// ring 3 so the domain's first-level filter applies from the first
// instruction). Same authorization and sealing rules as SetEntry.
func (m *Monitor) SetEntryRing(caller, id DomainID, ring hw.Ring) error {
	d, err := m.domainFor(caller, id, "configure")
	if err != nil {
		return err
	}
	if d.State() == StateSealed {
		return fmt.Errorf("%w: %d", ErrSealedState, id)
	}
	d.entryRing = ring
	return nil
}

// AddMeasuredRegion marks a region of the domain's memory whose content
// is included in the seal-time measurement.
func (m *Monitor) AddMeasuredRegion(caller, id DomainID, r phys.Region) error {
	d, err := m.domainFor(caller, id, "configure")
	if err != nil {
		return err
	}
	if d.State() == StateSealed {
		return fmt.Errorf("%w: %d", ErrSealedState, id)
	}
	if err := r.Validate(); err != nil {
		return err
	}
	if !m.space.CheckMemAccess(cap.OwnerID(id), r.Start, cap.RightsNone) ||
		!m.space.CheckMemAccess(cap.OwnerID(id), r.End-1, cap.RightsNone) {
		return m.deny("measured region %v outside domain %d's resources", r, id)
	}
	d.measured = append(d.measured, r)
	return nil
}

// Seal freezes the domain's resource set and computes its measurement.
// A sealed domain can no longer receive resources; its attestation
// becomes stable (§3.1).
func (m *Monitor) Seal(caller, id DomainID) (tpm.Digest, error) {
	return m.seal(caller, id)
}

// seal is Seal's body, shared with the guest's CallSealSelf on either
// path.
func (m *Monitor) seal(caller, id DomainID) (tpm.Digest, error) {
	d, err := m.domainFor(caller, id, "seal")
	if err != nil {
		return tpm.Digest{}, err
	}
	if d.State() == StateSealed {
		return tpm.Digest{}, fmt.Errorf("%w: %d", ErrSealedState, id)
	}
	if !d.entrySet {
		return tpm.Digest{}, fmt.Errorf("%w: seal requires an entry point", ErrNoEntry)
	}
	// ComputeMeasurement's encoding, with each region's bytes streamed
	// from physical memory into the hash rather than copied out first.
	regions := phys.NormalizeRegions(d.measured)
	mm := newMeasurer(d.entry, len(regions))
	for _, r := range regions {
		if err := m.mach.Mem.WriteRegionTo(mm.region(r, r.Size()), r); err != nil {
			return tpm.Digest{}, err
		}
	}
	d.measurement = mm.sum()
	d.state = StateSealed
	m.space.Seal(cap.OwnerID(id))
	m.stats.CapOps++
	m.emit(trace.KSeal, id, uint64(caller), 0, 0, 0)
	return d.measurement, nil
}

// KillDomain destroys a domain: every capability it holds (and all
// capabilities ever derived from them) is revoked with its cleanup
// policies executed, and its hardware state is removed.
func (m *Monitor) KillDomain(caller, id DomainID) error {
	d, err := m.domainFor(caller, id, "kill")
	if err != nil {
		return err
	}
	if id == InitialDomain {
		return m.deny("the initial domain cannot be killed")
	}
	return m.reclaim(m.destroyPublish(d))
}

// Enumerate returns the domain's resources as the attestation would
// list them: effective regions, rights, and system-wide reference
// counts (§3.4: "resource enumeration and reference counts make sharing
// and communication paths between domains explicit").
func (m *Monitor) Enumerate(id DomainID) ([]ResourceRecord, error) {
	if _, err := m.liveDomain(id); err != nil {
		return nil, err
	}
	return m.enumerate(cap.OwnerID(id)), nil
}

func (m *Monitor) enumerate(owner cap.OwnerID) []ResourceRecord {
	var out []ResourceRecord
	// A grant's count is the most owners any byte of it has: a sweep of
	// the pieces over that grant, not of the machine.
	var grants [8]cap.MemoryGrant // a domain rarely holds more
	for _, g := range m.space.AppendOwnerMemoryGrants(grants[:0], owner) {
		out = append(out, ResourceRecord{
			Resource: cap.MemResource(g.Region),
			Rights:   g.Rights,
			RefCount: m.space.MaxOwners(g.Region),
		})
	}
	for _, c := range m.space.OwnerCores(owner) {
		out = append(out, ResourceRecord{
			Resource: cap.CoreResource(c),
			Rights:   cap.RightRun,
			RefCount: m.space.CoreRefCount(c),
		})
	}
	for _, dev := range m.space.OwnerDevices(owner) {
		out = append(out, ResourceRecord{
			Resource: cap.DeviceResource(dev),
			Rights:   cap.RightUse,
			RefCount: m.space.DeviceRefCount(dev),
		})
	}
	return out
}

// RefCounts exposes the system-wide memory reference-count map
// (Figure 4).
func (m *Monitor) RefCounts() []cap.RegionCount {
	return m.space.RefCounts()
}

// CapGeneration exposes the capability space's mutation generation —
// every delegation or revocation bumps it, so tests can assert the
// monitor observed the expected volume of mutations.
func (m *Monitor) CapGeneration() uint64 {
	return m.space.Generation()
}

// LineageTree renders the capability derivation forest (diagnostics).
func (m *Monitor) LineageTree() string {
	return m.space.TreeString()
}

// OwnerNodes lists a domain's capability nodes (for libraries building
// on the API; capabilities are not secret from their owner).
func (m *Monitor) OwnerNodes(id DomainID) []cap.Info {
	return m.space.OwnerNodes(cap.OwnerID(id))
}

// CheckAccess reports whether a domain has effective access at an
// address (diagnostic / test hook; enforcement happens in hardware).
func (m *Monitor) CheckAccess(id DomainID, a phys.Addr, want cap.Rights) bool {
	return m.space.CheckMemAccess(cap.OwnerID(id), a, want)
}

// CopyInto writes data into the domain's memory after validating the
// domain holds write access over every touched page. Go-level domain
// logic (the OS kit, libraries, examples) uses this instead of raw
// physical writes so that the capability system is never bypassed.
func (m *Monitor) CopyInto(id DomainID, a phys.Addr, data []byte) error {
	if err := m.checkRange(id, a, uint64(len(data)), cap.RightWrite); err != nil {
		return err
	}
	return m.mach.Mem.WriteAt(a, data)
}

// CopyFrom reads the domain's memory after validating read access.
func (m *Monitor) CopyFrom(id DomainID, a phys.Addr, n uint64) ([]byte, error) {
	if n > m.mach.Mem.Size() { // no domain holds more than the machine: refuse before allocating
		return nil, m.deny("domain %d lacks %v at %v", id, cap.RightRead, a)
	}
	buf := make([]byte, n)
	if err := m.ReadInto(id, a, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto is CopyFrom into the caller's buffer: it fills buf from the
// domain's memory at a after validating read access.
func (m *Monitor) ReadInto(id DomainID, a phys.Addr, buf []byte) error {
	if err := m.checkRange(id, a, uint64(len(buf)), cap.RightRead); err != nil {
		return err
	}
	return m.mach.Mem.ReadAt(a, buf)
}

func (m *Monitor) checkRange(id DomainID, a phys.Addr, n uint64, want cap.Rights) error {
	if _, err := m.liveDomain(id); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	first := a.PageAlign()
	r := phys.Region{Start: first, End: (a + phys.Addr(n) - 1).PageAlign() + phys.PageSize}
	if r.Empty() { // the range wraps the address space
		return m.deny("domain %d lacks %v at %v", id, want, first)
	}
	if p, ok := m.space.CheckMemRange(cap.OwnerID(id), r, want); !ok {
		return m.deny("domain %d lacks %v at %v", id, want, p)
	}
	return nil
}

// SetReportData binds a domain-chosen digest into the domain's future
// attestation reports (the SGX REPORTDATA analogue). Only the domain
// itself may set it — it is runtime material (e.g. the hash of a
// key-exchange public key), settable even after sealing.
func (m *Monitor) SetReportData(caller, id DomainID, data tpm.Digest) error {
	d, err := m.liveDomain(id)
	if err != nil {
		return err
	}
	if caller != id {
		return m.deny("only domain %d itself may set its report data", id)
	}
	d.reportData = data
	return nil
}

// SetSyscallHandler installs the Go-level ring-0 trap handler for the
// domain (its "kernel").
func (m *Monitor) SetSyscallHandler(caller, id DomainID, h SyscallHandler) error {
	d, err := m.domainFor(caller, id, "install handlers for")
	if err != nil {
		return err
	}
	d.syscall = h
	return nil
}

// DomainContext exposes the domain's per-core execution context to the
// domain's own privileged code (e.g. the OS kit managing its internal
// first-level filter). The monitor-controlled Filter inside it keeps
// enforcing regardless of what the domain does to OSFilter.
func (m *Monitor) DomainContext(caller, id DomainID, core phys.CoreID) (*hw.Context, error) {
	if _, err := m.domainFor(caller, id, "access the context of"); err != nil {
		return nil, err
	}
	return m.bk.Context(cap.OwnerID(id), core)
}
