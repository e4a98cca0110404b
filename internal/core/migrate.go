package core

// Attested live migration, monitor side. A domain's complete isolation
// state — exclusive memory contents, capability shape (regions +
// rights, cores), entry configuration, measured regions, seal-time
// measurement, and its vCPUs waiting for a dispatch — is captured into
// a DomainSnapshot on the source machine and rebuilt by RestoreDomain
// on the destination, which re-derives the measurement through the
// ordinary Seal path and refuses the restore if it does not reproduce
// the snapshot's digest (re-attestation on arrival: the measurement is
// recomputed from the restored bytes, never trusted from the wire). The fleet control
// plane (internal/fleet) ships snapshots over dist.Conn attested
// channels and completes the departure with DepartKill — a forced
// scrub + key erase of the source copy, so exactly one plaintext
// instance of the domain exists after the handoff.
//
// Measurements and jump targets are absolute-address-dependent
// (ComputeMeasurement hashes region start/end; the ISA assembler
// resolves labels to absolute addresses), so a snapshot restores at
// the SAME physical base it was captured at. The fleet keeps that
// invariant cheap: every node boots an identical memory layout and
// tenant bases are assigned fleet-globally, so a domain's span is
// free on every other node by construction.

import (
	"errors"
	"fmt"
	"slices"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/codec"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
)

// Migration errors.
var (
	// ErrNotMigratable reports a domain whose state cannot be captured
	// completely: shared memory, device capabilities, a registered
	// submission ring, in-flight mediated calls, or currently running
	// on a core.
	ErrNotMigratable = errors.New("core: domain not migratable")
	// ErrReattest reports that a restored domain's recomputed seal
	// measurement does not reproduce the snapshot's digest — the
	// payload was corrupted or tampered with in flight. The partial
	// restore is destroyed before the error returns.
	ErrReattest = errors.New("core: migrated domain failed re-attestation")
)

// RegionSnapshot is one exclusively-held memory grant: offset from the
// snapshot base, the granted rights, and the full contents.
type RegionSnapshot struct {
	Offset uint64
	Size   uint64
	Rights cap.Rights
	Data   []byte
}

// VCPUSnapshot is one vCPU waiting for a dispatch. Started vCPUs carry
// saved architectural state and resume via TransDispatch on the
// destination; unstarted ones enter at the entry point like any fresh
// CreateVCPU.
type VCPUSnapshot struct {
	Started bool
	Regs    [hw.NumRegs]uint64
	PC      uint64 // absolute
	Ring    hw.Ring
}

// MeasuredSpan is one measured region, base-relative.
type MeasuredSpan struct {
	Offset uint64
	Size   uint64
}

// DomainSnapshot is a domain's complete migratable state. The fleet
// ships its Encode bytes over an attested channel and rebuilds it with
// DecodeSnapshot. Base and Entry are absolute physical addresses —
// restore happens at the same base (see the package comment on
// migrate.go).
type DomainSnapshot struct {
	Name      string
	Base      uint64
	Span      uint64 // bytes from Base covering every region
	Entry     uint64 // absolute
	EntrySet  bool
	EntryRing hw.Ring
	Sealed    bool
	// Measurement is the seal-time digest the destination must
	// reproduce from the restored bytes (zero when not sealed).
	Measurement tpm.Digest
	Measured    []MeasuredSpan
	Regions     []RegionSnapshot
	// Cores is how many core capabilities the domain held; the
	// destination shares the same count from its own core set.
	Cores int
	VCPUs []VCPUSnapshot
}

// snapshotVersion leads a snapshot's encoding; the sizes are a region's
// encoding without its contents and a vCPU's.
const (
	snapshotVersion = 1
	regionHeader    = 8 + 8 + 2 + 8
	vcpuSize        = 1 + 8*hw.NumRegs + 8 + 1
)

// Encode returns the snapshot's canonical encoding (package codec),
// region contents as raw bytes.
func (s *DomainSnapshot) Encode() []byte {
	size := 256 + len(s.VCPUs)*vcpuSize
	for _, r := range s.Regions {
		size += regionHeader + len(r.Data)
	}
	w := codec.Writer{Buf: make([]byte, 0, size)}
	w.U8(snapshotVersion)
	w.Str(s.Name)
	w.U64(s.Base)
	w.U64(s.Span)
	w.U64(s.Entry)
	w.Bool(s.EntrySet)
	w.U8(uint8(s.EntryRing))
	w.Bool(s.Sealed)
	w.Raw(s.Measurement[:])
	w.U64(uint64(len(s.Measured)))
	for _, m := range s.Measured {
		w.U64(m.Offset)
		w.U64(m.Size)
	}
	w.U64(uint64(len(s.Regions)))
	for _, r := range s.Regions {
		w.U64(r.Offset)
		w.U64(r.Size)
		w.U16(uint16(r.Rights))
		w.Blob(r.Data)
	}
	w.U64(uint64(s.Cores))
	w.U64(uint64(len(s.VCPUs)))
	for _, v := range s.VCPUs {
		w.Bool(v.Started)
		for _, reg := range v.Regs {
			w.U64(reg)
		}
		w.U64(v.PC)
		w.U8(uint8(v.Ring))
	}
	return w.Buf
}

// DecodeSnapshot decodes Encode's bytes, refusing any other byte string
// with one of package codec's errors. Region contents alias b.
func DecodeSnapshot(b []byte) (*DomainSnapshot, error) {
	r := codec.NewReader(b, snapshotVersion)
	s := &DomainSnapshot{Name: r.Str(), Base: r.U64(), Span: r.U64(), Entry: r.U64(),
		EntrySet: r.Bool(), EntryRing: hw.Ring(r.U8()), Sealed: r.Bool()}
	r.Raw(s.Measurement[:])
	s.Measured = codec.List(r, 16, func() MeasuredSpan { return MeasuredSpan{Offset: r.U64(), Size: r.U64()} })
	s.Regions = codec.List(r, regionHeader, func() RegionSnapshot {
		return RegionSnapshot{Offset: r.U64(), Size: r.U64(), Rights: cap.Rights(r.U16()), Data: r.Blob()}
	})
	s.Cores = int(r.U64())
	s.VCPUs = codec.List(r, vcpuSize, func() (v VCPUSnapshot) {
		v.Started = r.Bool()
		for i := range v.Regs {
			v.Regs[i] = r.U64()
		}
		v.PC, v.Ring = r.U64(), hw.Ring(r.U8())
		return v
	})
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	return s, nil
}

// SnapshotDomain captures a quiescent domain's migratable state with
// monitor authority (the node-operator entry point, like ForceKill:
// the control plane invokes it from outside any domain). The domain
// must be fully quiescent — not current on any core, no saved call
// frames referencing it, no registered submission ring — and its
// memory must be exclusively held: migrating one side of a shared
// region would fork the sharing relationship.
func (m *Monitor) SnapshotDomain(id DomainID) (*DomainSnapshot, error) {
	d, err := m.liveDomain(id)
	if err != nil {
		return nil, err
	}
	if id == InitialDomain {
		return nil, fmt.Errorf("%w: the initial domain", ErrNotMigratable)
	}
	// Quiescence: the domain is not on any core, and no core's mediated
	// call stack would unwind into it.
	for c, sc := range m.sched {
		onCore := sc.hasCur && sc.cur == id
		for _, f := range sc.frames {
			if f == id {
				onCore = true
			}
		}
		if onCore {
			return nil, fmt.Errorf("%w: domain %d is active on core %v", ErrNotMigratable, id, c)
		}
	}
	if _, hasRing := m.rings[id]; hasRing {
		return nil, fmt.Errorf("%w: domain %d has a registered submission ring", ErrNotMigratable, id)
	}
	owner := cap.OwnerID(id)
	if devs := m.space.OwnerDevices(owner); len(devs) > 0 {
		return nil, fmt.Errorf("%w: domain %d holds device capabilities", ErrNotMigratable, id)
	}

	snap := &DomainSnapshot{Name: d.name}
	// Memory: every grant must be exclusive — no byte of it held by a
	// second owner (reference count 1).
	grants := m.space.OwnerMemoryGrants(owner)
	if len(grants) == 0 {
		return nil, fmt.Errorf("%w: domain %d holds no memory", ErrNotMigratable, id)
	}
	base := grants[0].Region.Start
	end := grants[0].Region.End
	for _, g := range grants {
		if m.space.MaxOwners(g.Region) != 1 {
			return nil, fmt.Errorf("%w: region %v of domain %d is shared", ErrNotMigratable, g.Region, id)
		}
		if g.Region.Start < base {
			base = g.Region.Start
		}
		if g.Region.End > end {
			end = g.Region.End
		}
	}
	snap.Base = uint64(base)
	snap.Span = uint64(end - base)
	for _, g := range grants {
		view, err := m.mach.Mem.View(g.Region)
		if err != nil {
			return nil, err
		}
		snap.Regions = append(snap.Regions, RegionSnapshot{
			Offset: uint64(g.Region.Start - base),
			Size:   g.Region.Size(),
			Rights: g.Rights,
			Data:   view, // View's own copy
		})
	}
	snap.Cores = len(m.space.OwnerCores(owner))

	snap.Entry = uint64(d.entry)
	snap.EntrySet = d.entrySet
	snap.EntryRing = d.entryRing
	snap.Sealed = d.State() == StateSealed
	snap.Measurement = d.measurement
	for _, r := range phys.NormalizeRegions(d.measured) {
		snap.Measured = append(snap.Measured, MeasuredSpan{
			Offset: uint64(r.Start - base),
			Size:   r.Size(),
		})
	}

	// The domain's waiting vCPUs travel with it. A vCPU that would run or unwind into a domain that
	// stays behind cannot migrate, nor can the domain while another
	// domain's vCPU would run or unwind into it.
	for _, o := range m.tab {
		if m.vcpus == 0 {
			break // no live domain has a vCPU
		}
		if o.State() == StateDead {
			continue
		}
		for _, v := range o.vcpus {
			if v.state != vcpuFresh && v.state != vcpuSaved ||
				o.id != id && v.running != id && !slices.Contains(v.frames, id) {
				continue
			}
			if o.id != id || v.running != id || len(v.frames) > 0 {
				return nil, fmt.Errorf("%w: a waiting vCPU of domain %d holds a mediated call stack", ErrNotMigratable, id)
			}
			snap.VCPUs = append(snap.VCPUs, VCPUSnapshot{Started: v.state == vcpuSaved, Regs: v.regs, PC: uint64(v.pc), Ring: v.ring})
		}
	}

	m.stats.MigrationsOut++
	return snap, nil
}

// RestoreDomain rebuilds a snapshot as a new domain on this monitor,
// at the snapshot's original base. caller is the admitting domain
// (the node's dom0); node is a memory capability of caller covering
// [Base, Base+Span) from which the regions are granted; cores lists
// the physical cores to share with the restored domain (each must
// have a core capability owned by caller).
//
// Re-attestation on arrival: for a sealed snapshot the restore runs
// the ordinary Seal path, which recomputes the measurement from the
// restored bytes — if it does not reproduce Snapshot.Measurement the
// restored domain is destroyed (forced scrub) and ErrReattest
// returns. Any other mid-restore failure likewise destroys the
// partial domain: a failed restore leaves no half-state behind.
func (m *Monitor) RestoreDomain(caller DomainID, node cap.NodeID, cores []phys.CoreID, snap *DomainSnapshot) (id DomainID, retErr error) {
	if snap == nil || len(snap.Regions) == 0 {
		return 0, fmt.Errorf("%w: empty snapshot", ErrNotMigratable)
	}
	id, retErr = m.CreateDomain(caller, snap.Name)
	if retErr != nil {
		return 0, retErr
	}
	defer func() {
		if retErr != nil {
			// Destroy the partial restore with a forced scrub — no
			// half-state survives a failed migration.
			_ = m.ForceKill(id)
			id = 0
		}
	}()
	base := phys.Addr(snap.Base)
	for _, r := range snap.Regions {
		if uint64(len(r.Data)) != r.Size {
			return id, fmt.Errorf("%w: region size mismatch", ErrReattest)
		}
		reg := phys.MakeRegion(base+phys.Addr(r.Offset), r.Size)
		// Contents land before the grant: once granted exclusively the
		// admitting domain loses access.
		if err := m.CopyInto(caller, reg.Start, r.Data); err != nil {
			return id, err
		}
		if _, err := m.Grant(caller, node, id, cap.MemResource(reg), r.Rights, cap.CleanZero); err != nil {
			return id, err
		}
	}
	for _, c := range cores {
		cn, ok := m.space.OwnerCoreNode(cap.OwnerID(caller), c)
		if !ok {
			return id, fmt.Errorf("%w: caller %d holds no capability for core %v", ErrNotMigratable, caller, c)
		}
		if _, err := m.Share(caller, cn, id, cap.CoreResource(c), cap.RightRun|cap.RightShare, cap.CleanNone); err != nil {
			return id, err
		}
	}
	if snap.EntrySet {
		if err := m.SetEntry(caller, id, phys.Addr(snap.Entry)); err != nil {
			return id, err
		}
		if err := m.SetEntryRing(caller, id, snap.EntryRing); err != nil {
			return id, err
		}
	}
	for _, ms := range snap.Measured {
		r := phys.MakeRegion(base+phys.Addr(ms.Offset), ms.Size)
		if err := m.AddMeasuredRegion(caller, id, r); err != nil {
			return id, err
		}
	}
	if snap.Sealed {
		got, err := m.Seal(caller, id)
		if err != nil {
			return id, err
		}
		if got != snap.Measurement {
			return id, fmt.Errorf("%w: measurement %x != snapshot %x", ErrReattest, got[:4], snap.Measurement[:4])
		}
	}
	// The vCPUs are recreated here, the snapshot's i-th as VCPU{id, i},
	// for the target's manager to enqueue.
	for _, vs := range snap.VCPUs {
		if !vs.Started {
			if _, err := m.CreateVCPU(id); err != nil {
				return id, err
			}
			continue
		}
		d, err := m.liveDomain(id)
		if err != nil {
			return id, err
		}
		m.addVCPU(d, &vcpu{state: vcpuSaved, running: id, regs: vs.Regs, pc: phys.Addr(vs.PC), ring: vs.Ring})
	}
	m.stats.MigrationsIn++
	return id, nil
}
