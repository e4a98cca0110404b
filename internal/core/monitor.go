package core

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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

// statCounters is the monitor's live tally: one atomic per Stats field,
// so counters update without any lock and Stats() snapshots them
// allocation-free.
type statCounters struct {
	vmExits      atomic.Uint64
	transitions  atomic.Uint64
	fastSwitches atomic.Uint64
	syscalls     atomic.Uint64
	capOps       atomic.Uint64
	revocations  atomic.Uint64
	attests      atomic.Uint64
	deniedOps    atomic.Uint64
	irqsRouted   atomic.Uint64
	irqsDropped  atomic.Uint64

	machineChecks atomic.Uint64
	forcedKills   atomic.Uint64
	pagesScrubbed atomic.Uint64
	coresParked   atomic.Uint64

	ringOps          atomic.Uint64
	ringFlushes      atomic.Uint64
	ringShootdowns   atomic.Uint64
	ringOpsCoalesced atomic.Uint64
	ringDrainErrors  atomic.Uint64

	migrationsOut atomic.Uint64
	migrationsIn  atomic.Uint64
}

func (s *statCounters) snapshot() Stats {
	return Stats{
		VMExits:       s.vmExits.Load(),
		Transitions:   s.transitions.Load(),
		FastSwitches:  s.fastSwitches.Load(),
		Syscalls:      s.syscalls.Load(),
		CapOps:        s.capOps.Load(),
		Revocations:   s.revocations.Load(),
		Attests:       s.attests.Load(),
		DeniedOps:     s.deniedOps.Load(),
		IRQsRouted:    s.irqsRouted.Load(),
		IRQsDropped:   s.irqsDropped.Load(),
		MachineChecks: s.machineChecks.Load(),
		ForcedKills:   s.forcedKills.Load(),
		PagesScrubbed: s.pagesScrubbed.Load(),
		CoresParked:   s.coresParked.Load(),

		RingOps:          s.ringOps.Load(),
		RingFlushes:      s.ringFlushes.Load(),
		RingShootdowns:   s.ringShootdowns.Load(),
		RingOpsCoalesced: s.ringOpsCoalesced.Load(),
		RingDrainErrors:  s.ringDrainErrors.Load(),

		MigrationsOut: s.migrationsOut.Load(),
		MigrationsIn:  s.migrationsIn.Load(),
	}
}

// domainTable is the atomically-published domain index: entry i is
// domain InitialDomain+i. IDs are dense and domains never leave it —
// death is a state transition, observed through Domain.State. Readers
// load it with one atomic pointer read and no lock; CreateDomain, under
// tabMu, appends past every published length (so under no reader) and
// publishes the longer slice.
type domainTable []*Domain

// get returns domain id, or false if it was never created.
func (t domainTable) get(id DomainID) (*Domain, bool) {
	if i := uint64(id - InitialDomain); i < uint64(len(t)) {
		return t[i], true
	}
	return nil, false
}

// coreSched is one core's scheduling state: the mediated call stack and
// the monitor's notion of the current domain. Each core has its own
// mutex, so transitions on different cores never contend.
type coreSched struct {
	mu     sync.Mutex
	frames []DomainID
	cur    DomainID
	hasCur bool
	vcpu   VCPU // the vCPU last dispatched here (none after Launch)
}

// Monitor is the isolation monitor instance controlling one machine.
//
// The monitor is safe for concurrent use. There is no top-level lock:
// state is partitioned so the dominant operations run concurrently:
//
//   - Lock-free read path: domain lookup goes through an
//     atomically-published immutable table (tab); liveness is the
//     domain's atomic state; Stats are atomics; capability queries go
//     to the internally-synchronised cap.Space. Stats, Domain, Domains,
//     DomainKeyID, Enumerate, Attest's enumeration+signing, RefCounts,
//     and read-only VMCall dispatch take no monitor lock at all.
//   - Entries that rely on the state they read staying reachable —
//     delegations, transitions, seals, copies, IRQ routing, attestation
//     — pin the epoch engine (renter/rexit, epoch.go) and take no
//     top-level lock. The destructive family (Revoke, KillDomain,
//     ForceKill, containFault, ring drains) serialises on revMu
//     (denter/dexit) and follows the RCU discipline: publish the removal
//     (capability-subtree detach, atomic death state), synchronize
//     (wait for every pre-publish pin to drop), then run the
//     irreversible effects (cleanups, scrub, shootdown, release of
//     the detached records, hardware resync) — all of it inside the
//     entry, nothing deferred past dexit. Revocation therefore runs
//     concurrently with lock-free readers; only its publish steps are
//     serialized. Domain creation serialises on tabMu, the only other
//     writer of the published table.
//   - Per-domain mutexes (Domain.mu) guard one domain's mutable record
//     (entry point, measured regions, handlers, log); per-core mutexes
//     (coreSched.mu) guard one core's call stack and serialise
//     transitions on that core; hwMu serialises whole-machine hardware
//     resync (device filters, encryption keying); the capability space
//     has one lock of its own (see cap.Space).
//
// Lock order (documented, enforced by construction): revMu / tabMu →
// coreSched.mu (a destructive entry holds every core's, in core order,
// around its shootdowns) → Domain.mu (two domains in ascending
// DomainID) → hwMu → the capability-space lock / hardware-object
// locks. Locks are only ever
// taken left-to-right; cap and hw locks are leaves, never held across
// calls back into the monitor. ep.synchronize is called while holding
// only revMu, before any leaf lock, so a pinned reader can always
// finish. Go-level syscall and IRQ handlers are invoked with no monitor
// locks held — they re-enter the monitor through the public API like
// any caller.
type Monitor struct {
	// hwMu serialises global hardware resynchronisation: IOMMU device
	// filters and memory-encryption keying, which read system-wide
	// capability state and write shared hardware objects.
	hwMu sync.Mutex

	// revMu serialises the destructive family — revoke, kill,
	// containment, ring drains — against itself: the single-writer side
	// of the epoch scheme, and the only top-level lock an entry can
	// block on. revWaitNs/revAcqs account that blocking for LockWait
	// (wall time only; simulated clocks are never touched).
	revMu     sync.Mutex
	revWaitNs atomic.Int64
	revAcqs   atomic.Uint64
	// tabMu serialises domain creation, the only writer of the
	// published domain table besides boot.
	tabMu sync.Mutex
	// ep is the epoch-based reclamation engine (epoch.go): readers pin,
	// destructive operations publish, synchronize and then reclaim.
	ep epochEngine

	mach  *hw.Machine
	space *cap.Space
	bk    backend.Backend
	rot   *tpm.TPM

	identity  []byte
	monRegion phys.Region

	tab atomic.Pointer[domainTable]

	// opTok mints trace-frame tokens: KOpBegin/KOpEnd pairs carry one in
	// their Node field so the checker can match frames that interleave
	// (concurrent delegations from reader entries).
	opTok atomic.Uint64

	attPriv ed25519.PrivateKey
	attPub  ed25519.PublicKey

	// sched holds per-core scheduling state; the map itself is built at
	// boot and never mutated, so indexing it is lock-free.
	sched map[phys.CoreID]*coreSched
	// vcpus counts the vCPUs of live domains (vcpu.go).
	vcpus atomic.Int64

	// memKeys maps domains to their MKTME keys (empty when the machine
	// has no engine), guarded by keyMu.
	keyMu   sync.Mutex
	memKeys map[DomainID]hw.KeyID

	// ringMu guards the submission-ring registry (ring.go), a leaf:
	// setup registers from a reader entry, drains and teardown walk it
	// from destructive entries. ringCount mirrors
	// len(rings) so DrainRings at a round barrier can skip the drain
	// entirely — one atomic load — when no domain ever set a ring up,
	// keeping unbatched runs cycle-identical to pre-ring builds.
	ringMu    sync.Mutex
	rings     map[DomainID]*domainRing
	ringCount atomic.Int64

	// drainErrMu/firstDrainErr latch the first drain failure a round
	// could not hand to a caller, so tests and embedders can observe
	// what Stats().RingDrainErrors only counts.
	drainErrMu    sync.Mutex
	firstDrainErr error

	// checkpoint, when installed (SetCheckpoint), runs at the monitor's
	// quiescent points: round barriers (RunCores completion, and
	// Checkpoint calls of management code driving its own rounds) and
	// ring-drain doorbells. The runtime-verification service
	// (internal/rv) registers its shard-merge step here so cross-core
	// trace properties resolve without ever serialising the emit path.
	checkpoint atomic.Pointer[func()]

	// hookDelegatePreEmit, when non-nil, runs inside delegate
	// after the capability mutation and before the trace emit. Test-only
	// (never set outside _test files): the epoch mutation test parks a
	// delegation here to hold its pin open across a concurrent kill.
	hookDelegatePreEmit func(DomainID)

	stats statCounters
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
	m.ep.init()

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
	m.tab.Store(&domainTable{init})
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
	if err := m.resync(nil, m.mach.DeviceIDs()); err != nil {
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

// Stats returns an allocation-free snapshot of the monitor's event
// counters: every field is one atomic load. Each field is individually
// exact, but nothing excludes the revocation family (epoch scheme), so
// a snapshot may land between the logically-paired counter updates of
// an in-flight revoke — e.g. see CapOps already incremented but
// Revocations not yet. The tearing is bounded by the number of
// in-flight operations and resolves as soon as they retire; quiescent
// snapshots are exact. Delegations, transitions, and revocations are
// never blocked by a Stats reader.
func (m *Monitor) Stats() Stats { return m.stats.snapshot() }

// LockWait returns the cumulative wall time destructive-family entries
// spent blocked on revMu — the one top-level lock a monitor entry can
// wait on; reader entries pin an epoch and block on nothing — and the
// number of revMu acquisitions, which C15 gates exactly (one per
// revocation, none for readers). The accounting is wall-clock only
// and never advances simulated cycles.
func (m *Monitor) LockWait() (time.Duration, uint64) {
	return time.Duration(m.revWaitNs.Load()), m.revAcqs.Load()
}

// SetCheckpoint installs fn (nil removes it) to run at the monitor's
// quiescent points: every round barrier and every ring-drain doorbell.
// It is the hook the runtime-verification service (internal/rv) uses to
// merge its shard checkers where cross-core state is naturally settled. fn must be fast, must
// not call back into the monitor, and must never advance simulated
// cycles — checkpoints are host-side work, invisible to the cycle
// clock, which is what keeps cycle histories bit-identical with
// verification on or off.
func (m *Monitor) SetCheckpoint(fn func()) {
	if fn == nil {
		m.checkpoint.Store(nil)
		return
	}
	m.checkpoint.Store(&fn)
}

// Checkpoint fires the installed checkpoint hook, if any: one atomic
// load on the (default) uninstalled path. RunCores fires it at the end
// of its round; a caller driving RunSlices fires it at its barriers.
func (m *Monitor) Checkpoint() {
	if f := m.checkpoint.Load(); f != nil {
		(*f)()
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

// Domain returns the domain record for id. Lock-free: the record comes
// from the published domain table.
func (m *Monitor) Domain(id DomainID) (*Domain, error) {
	d, ok := m.tab.Load().get(id)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchDomain, id)
	}
	return d, nil
}

// Domains returns the IDs of all non-dead domains in ascending order,
// read from the published snapshot without taking any lock.
func (m *Monitor) Domains() []DomainID {
	var out []DomainID
	for _, d := range *m.tab.Load() {
		if d.State() != StateDead {
			out = append(out, d.id)
		}
	}
	return out
}

// liveDomain resolves id to a live domain (lock-free). Liveness is a
// moment-in-time fact: a concurrent kill may publish death right after
// this returns. Callers that act on the answer hold an epoch pin, so
// the kill's irreversible effects (scrub, reclaim, KKill) wait for
// them to finish — the operation linearizes before the kill.
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
	m.stats.deniedOps.Add(1)
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
// Creation appends to the domain table under tabMu — it stalls neither
// readers nor the destructive family, and costs the same however many
// domains came before. The epoch pin orders the KCreate emit before any
// concurrent kill of the creator retires.
func (m *Monitor) CreateDomain(caller DomainID, name string) (DomainID, error) {
	p := m.renter()
	defer m.rexit(p)
	m.tabMu.Lock()
	defer m.tabMu.Unlock()
	if _, err := m.liveDomain(caller); err != nil {
		return 0, err
	}
	tab := *m.tab.Load()
	id := InitialDomain + DomainID(len(tab))
	d := &Domain{id: id, name: name, creator: caller}
	if err := m.bk.InstallDomain(cap.OwnerID(id)); err != nil {
		return 0, err
	}
	tab = append(tab, d)
	m.tab.Store(&tab)
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
	p := m.renter()
	defer m.rexit(p)
	return m.delegate(caller, node, dst, sub, rights, cleanup, false)
}

// Grant transfers exclusive, revocable control of the sub-resource from
// caller's node to dst.
func (m *Monitor) Grant(caller DomainID, node cap.NodeID, dst DomainID, sub cap.Resource, rights cap.Rights, cleanup cap.Cleanup) (cap.NodeID, error) {
	p := m.renter()
	defer m.rexit(p)
	return m.delegate(caller, node, dst, sub, rights, cleanup, true)
}

// delegate validates and performs one Share or Grant with a monitor
// entry already held: a pinned reader entry from Share, Grant and the
// trap path, the destructive entry inside a drain round. The capability
// space provides its own per-owner locking for the mutation, and
// hardware resync is serialised per affected domain, so two delegations
// between disjoint domain pairs run fully in parallel. A kill racing
// the delegation either loses the liveness check (it published death
// first) or waits out the entry in its grace period — in which case the
// delegated capability is part of the subtree its DetachOwner then
// revokes.
func (m *Monitor) delegate(caller DomainID, node cap.NodeID, dst DomainID, sub cap.Resource, rights cap.Rights, cleanup cap.Cleanup, grant bool) (cap.NodeID, error) {
	op := trace.OpShare
	if grant {
		op = trace.OpGrant
	}
	tok := m.opTok.Add(1)
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
		m.stats.deniedOps.Add(1)
		return 0, err
	}
	m.stats.capOps.Add(1)
	if m.hookDelegatePreEmit != nil {
		m.hookDelegatePreEmit(dst)
	}
	kind := trace.KShare
	if grant {
		kind = trace.KGrant
	}
	var addr, size uint64
	if sub.Kind == cap.ResMemory {
		addr, size = uint64(sub.Mem.Start), sub.Mem.Size()
	}
	m.emit(kind, caller, uint64(dst), uint64(id), addr, size)
	// Both endpoints are rebuilt whatever their state: a grantor whose
	// death a racing kill publishes mid-grant must not keep hardware
	// access to what the tree just gave away.
	cd, _ := m.Domain(caller)
	doms := []*Domain{cd, dd}
	if cd == dd {
		doms = doms[:1]
	}
	var devs []phys.DeviceID
	if sub.Kind == cap.ResDevice {
		devs = []phys.DeviceID{sub.Device}
	}
	if err := m.resync(doms, devs); err != nil {
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
// Revocation never stops the world; it follows the epoch discipline,
// and these three steps are its only implementation — a ring drain
// round (drain.go) runs the same publish per descriptor, one shared
// grace, and the same retire over everything it published, and a kill
// (contain.go) retires the victim's detached subtree through the same
// retire after its forced scrub:
//
//	publish  — revokePublish: Detach removes the subtree from the
//	           capability index in one short exclusive critical
//	           section. New readers stop seeing the capabilities; grant
//	           suspensions persist, so the parents cannot re-delegate
//	           the regions yet.
//	quiesce  — synchronize waits out every reader that could have
//	           validated access before the detach. After it returns,
//	           no check-then-act entry still relies on revoked state.
//	reclaim  — retire: cleanups (zero/flush + shootdowns) scrub the
//	           revoked state, Release hands the parents their access
//	           back and drops the detached records, and affected
//	           hardware is resynchronised.
//
// The KOpBegin/KOpEnd frame brackets all of it, so the trace checker's
// shootdown-ack-inside-frame and scrub ordering invariants hold.
func (m *Monitor) Revoke(caller DomainID, node cap.NodeID) error {
	m.denter()
	defer m.dexit()
	tok := m.opTok.Add(1)
	m.emit(trace.KOpBegin, caller, trace.OpRevoke, tok, 0, 0)
	defer m.emit(trace.KOpEnd, caller, trace.OpRevoke, tok, 0, 0)
	det, err := m.revokePublish(caller, node)
	if err != nil {
		return err
	}
	m.ep.synchronize(1)
	return m.retire(false, det)
}

// revokePublish authorises caller's revocation of node and publishes
// it (destructive-family entry held): the detach is the only semantic
// commit point — no reader can see the subtree once it returns, and
// the grant suspensions persist until retire releases them — so any
// number of publishes may stack up before one grace period covers them
// all. It is the only caller of cap.Space.Detach.
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
	m.stats.capOps.Add(1)
	m.stats.revocations.Add(1)
	m.emit(trace.KRevoke, caller, 0, uint64(node), 0, 0)
	return det, nil
}

// retire runs the irreversible tail of published revocations, in
// order (destructive-family entry held; the caller has waited out a
// grace period covering every publish). It is the one tail of Revoke,
// a drain round and a kill. With coalesce the shootdowns the cleanups
// request retire as at most one cross-core round — the drain round's
// form, counted in the ring statistics; otherwise they run as they
// come. A subtree whose cleanups fail is never released (its parents
// stay suspended: fail closed); the rest still retire, every affected
// live owner is still resynchronised, and the first error is returned.
func (m *Monitor) retire(coalesce bool, dets ...*cap.Detached) error {
	m.lockCores()
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
	m.unlockCores()

	// The owners whose access the detaches changed — the owners of the
	// detached capabilities and the grantors Release handed access back
	// to — less the dead, and the devices whose capabilities were among
	// those revoked.
	var ownerBuf [8]cap.OwnerID // a revocation rarely touches more
	var domBuf [8]*Domain
	var devBuf [4]phys.DeviceID
	owners, doms, devs := ownerBuf[:0], domBuf[:0], devBuf[:0]
	for _, det := range dets {
		owners = append(owners, det.ParentOwners()...)
		for _, a := range det.Actions() {
			owners = append(owners, a.Owner)
			if a.Resource.Kind == cap.ResDevice {
				devs = append(devs, a.Resource.Device)
			}
		}
	}
	slices.Sort(owners)
	tab := m.tab.Load()
	for _, o := range slices.Compact(owners) {
		if d, ok := tab.get(DomainID(o)); ok && d.State() != StateDead {
			doms = append(doms, d)
		}
	}
	if err := m.resync(doms, devs); firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// lockCores takes every core's scheduling lock, in core order, for the
// span of the cleanups that shoot down TLBs (destructive-family entry
// held). A round targets the cores resident for its domains, and a
// mediated transition changes a core's residency and emits its
// KTransition under that core's lock — so with every lock held, each
// transition lands on the same side of the round in the hardware and
// in the trace, and the checker's residency is the hardware's.
func (m *Monitor) lockCores() {
	for i := range m.mach.Cores {
		m.sched[phys.CoreID(i)].mu.Lock()
	}
}

// unlockCores releases what lockCores took.
func (m *Monitor) unlockCores() {
	for i := range m.mach.Cores {
		m.sched[phys.CoreID(i)].mu.Unlock()
	}
}

// endShootdownBatch retires the armed shootdown accumulator and counts
// the round in the ring statistics.
func (m *Monitor) endShootdownBatch() {
	rounds, coalesced := m.mach.EndShootdownBatch()
	m.stats.ringShootdowns.Add(uint64(rounds))
	m.stats.ringOpsCoalesced.Add(uint64(coalesced))
}

// resync reprograms the hardware a capability change can have affected,
// in three steps: the filter of every domain in doms, the IOMMU context
// of every device in devs or held with DMA rights by one of doms (in
// machine device order), then the encryption keying. It is the one
// resync of delegation, revocation, kill and boot; each caller decides
// which domains to list. A failed step (a PMP layout over budget) must
// not strand the ones after it on filters that still map what their
// owners lost, so every step runs regardless and the first error is
// returned.
//
// Each domain's rebuild takes Domain.mu — one at a time, never as a held
// pair, so rings of delegating domains cannot convoy — which serialises
// rebuilds of one domain across concurrent delegations and
// revocations. Every rebuild reads the capability space at rebuild
// time, so the last one to run sees (at least) every mutation committed
// before it, and a revocation's scrub and release wait out the pins of
// in-flight delegations, so no rebuild reprograms a filter from state
// that is mid-reclaim.
//
// The device question goes to each domain — a walk of what it holds —
// not to each device, which would sweep the whole capability index once
// per machine device. A device's filter is the union of its DMA holders'
// memory, so it can only have changed if its holder set did (the caller
// lists it in devs) or if a holder is among doms. No snapshot across
// domains is needed: a device's holder set changes only through a
// delegation or revocation of the device itself, which resyncs it after
// it commits, under hwMu, reading the space at rebuild time.
func (m *Monitor) resync(doms []*Domain, devs []phys.DeviceID) error {
	var firstErr error
	for _, d := range doms {
		d.mu.Lock()
		err := m.bk.SyncDomain(cap.OwnerID(d.id))
		d.mu.Unlock()
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
		m.hwMu.Lock()
		for _, dev := range m.mach.DeviceIDs() {
			if !slices.Contains(held, dev) {
				continue
			}
			if err := m.bk.SyncDevice(dev); firstErr == nil {
				firstErr = err
			}
		}
		m.hwMu.Unlock()
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
	p := m.renter()
	defer m.rexit(p)
	d, err := m.domainFor(caller, id, "configure")
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
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
	p := m.renter()
	defer m.rexit(p)
	d, err := m.domainFor(caller, id, "configure")
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.State() == StateSealed {
		return fmt.Errorf("%w: %d", ErrSealedState, id)
	}
	d.entryRing = ring
	return nil
}

// AddMeasuredRegion marks a region of the domain's memory whose content
// is included in the seal-time measurement.
func (m *Monitor) AddMeasuredRegion(caller, id DomainID, r phys.Region) error {
	p := m.renter()
	defer m.rexit(p)
	d, err := m.domainFor(caller, id, "configure")
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
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
	p := m.renter()
	defer m.rexit(p)
	return m.seal(caller, id)
}

// seal is Seal with a monitor entry already held (Seal's pin, the
// guest's CallSealSelf on either path).
// The domain mutex serialises it against concurrent configuration of
// the same domain; the capability space orders the seal against
// in-flight delegations to the domain under its own lock.
func (m *Monitor) seal(caller, id DomainID) (tpm.Digest, error) {
	d, err := m.domainFor(caller, id, "seal")
	if err != nil {
		return tpm.Digest{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.State() == StateSealed {
		return tpm.Digest{}, fmt.Errorf("%w: %d", ErrSealedState, id)
	}
	if !d.entrySet {
		return tpm.Digest{}, fmt.Errorf("%w: seal requires an entry point", ErrNoEntry)
	}
	var contents []MeasuredRegion
	for _, r := range phys.NormalizeRegions(d.measured) {
		data, err := m.mach.Mem.View(r)
		if err != nil {
			return tpm.Digest{}, err
		}
		contents = append(contents, MeasuredRegion{Region: r, Content: data})
	}
	d.measurement = ComputeMeasurement(d.entry, contents)
	d.setState(StateSealed)
	m.space.Seal(cap.OwnerID(id))
	m.stats.capOps.Add(1)
	m.emit(trace.KSeal, id, uint64(caller), 0, 0, 0)
	return d.measurement, nil
}

// KillDomain destroys a domain: every capability it holds (and all
// capabilities ever derived from them) is revoked with its cleanup
// policies executed, and its hardware state is removed.
func (m *Monitor) KillDomain(caller, id DomainID) error {
	m.denter()
	defer m.dexit()
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
// and communication paths between domains explicit"). Lock-free: every
// query goes to the internally-synchronised capability space. Each
// record is individually consistent; a concurrent delegation may land
// between records, exactly as it may land right after Enumerate
// returns.
func (m *Monitor) Enumerate(id DomainID) ([]ResourceRecord, error) {
	if _, err := m.liveDomain(id); err != nil {
		return nil, err
	}
	return m.enumerate(cap.OwnerID(id)), nil
}

func (m *Monitor) enumerate(owner cap.OwnerID) []ResourceRecord {
	var out []ResourceRecord
	// One sweep of the reference-count map serves every record (the
	// per-region query is quadratic in enumeration size).
	rcs := m.space.RefCounts()
	maxRef := func(r phys.Region) int {
		max := 0
		for _, rc := range rcs {
			if rc.Region.Overlaps(r) && rc.Count > max {
				max = rc.Count
			}
		}
		return max
	}
	for _, g := range m.space.OwnerMemoryGrants(owner) {
		out = append(out, ResourceRecord{
			Resource: cap.MemResource(g.Region),
			Rights:   g.Rights,
			RefCount: maxRef(g.Region),
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
// (Figure 4). Lock-free at the monitor level.
func (m *Monitor) RefCounts() []cap.RegionCount {
	return m.space.RefCounts()
}

// CapGeneration exposes the capability space's mutation generation —
// every delegation or revocation bumps it, so concurrency tests can
// assert the monitor observed the expected volume of mutations.
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
// The epoch pin keeps the check-then-copy atomic against revocation:
// a concurrent revoke's scrub and reclaim wait out the pin, so a copy
// that validated access never lands on already-scrubbed memory.
func (m *Monitor) CopyInto(id DomainID, a phys.Addr, data []byte) error {
	p := m.renter()
	defer m.rexit(p)
	if err := m.checkRange(id, a, uint64(len(data)), cap.RightWrite); err != nil {
		return err
	}
	return m.mach.Mem.WriteAt(a, data)
}

// CopyFrom reads the domain's memory after validating read access.
func (m *Monitor) CopyFrom(id DomainID, a phys.Addr, n uint64) ([]byte, error) {
	p := m.renter()
	defer m.rexit(p)
	if err := m.checkRange(id, a, n, cap.RightRead); err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if err := m.mach.Mem.ReadAt(a, buf); err != nil {
		return nil, err
	}
	return buf, nil
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
	p := m.renter()
	defer m.rexit(p)
	d, err := m.liveDomain(id)
	if err != nil {
		return err
	}
	if caller != id {
		return m.deny("only domain %d itself may set its report data", id)
	}
	d.mu.Lock()
	d.reportData = data
	d.mu.Unlock()
	return nil
}

// SetSyscallHandler installs the Go-level ring-0 trap handler for the
// domain (its "kernel").
func (m *Monitor) SetSyscallHandler(caller, id DomainID, h SyscallHandler) error {
	p := m.renter()
	defer m.rexit(p)
	d, err := m.domainFor(caller, id, "install handlers for")
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.syscall = h
	d.mu.Unlock()
	return nil
}

// DomainContext exposes the domain's per-core execution context to the
// domain's own privileged code (e.g. the OS kit managing its internal
// first-level filter). The monitor-controlled Filter inside it keeps
// enforcing regardless of what the domain does to OSFilter.
func (m *Monitor) DomainContext(caller, id DomainID, core phys.CoreID) (*hw.Context, error) {
	p := m.renter()
	defer m.rexit(p)
	if _, err := m.domainFor(caller, id, "access the context of"); err != nil {
		return nil, err
	}
	return m.bk.Context(cap.OwnerID(id), core)
}
