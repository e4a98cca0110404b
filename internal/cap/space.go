package cap

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tyche-sim/tyche/internal/phys"
)

// OwnerID identifies a capability owner — a trust domain. The capability
// model treats owners as opaque; domain lifecycle lives in the monitor.
type OwnerID uint64

// NodeID identifies one node in the capability lineage tree.
type NodeID uint64

// NodeKind records how a capability came to exist.
type NodeKind int

// Node kinds.
const (
	// KindRoot capabilities are created by the monitor at boot (the
	// initial domain owns all physical resources).
	KindRoot NodeKind = iota
	// KindShared capabilities were derived by Share: parent keeps access.
	KindShared
	// KindGranted capabilities were derived by Grant: the parent's
	// access to the transferred sub-resource is suspended while the
	// grant is active ("granting exclusive control", §3.2).
	KindGranted
)

var nodeKindNames = [...]string{"root", "shared", "granted"}

func (k NodeKind) String() string {
	if int(k) < len(nodeKindNames) {
		return nodeKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Sentinel errors returned by Space operations.
var (
	ErrNotFound     = errors.New("cap: capability not found")
	ErrRights       = errors.New("cap: rights exceed parent capability")
	ErrNoDelegation = errors.New("cap: capability lacks the needed delegation right")
	ErrSealed       = errors.New("cap: domain is sealed")
	ErrSubresource  = errors.New("cap: requested resource not within (effective) capability")
	ErrInvalid      = errors.New("cap: invalid argument")
)

type node struct {
	// owner, res, rights, cleanup and kind are immutable and id is set
	// once, by insert; parent and children are written only with Space.mu
	// held exclusively. So is detached, which marks a node a revocation
	// has removed from the index but not yet released (detach.go).
	id       NodeID
	owner    OwnerID
	res      Resource
	rights   Rights
	cleanup  Cleanup
	kind     NodeKind
	parent   *node
	children []*node
	detached bool
}

// Info is an exported snapshot of one capability node.
type Info struct {
	ID       NodeID
	Owner    OwnerID
	Resource Resource
	Rights   Rights
	Cleanup  Cleanup
	Kind     NodeKind
	Parent   NodeID // 0 for roots
	Children []NodeID
}

// CleanupAction records one cleanup the monitor must execute as part of
// a revocation: the capability model validates and sequences; the
// hardware backend performs.
type CleanupAction struct {
	Node     NodeID
	Owner    OwnerID
	Resource Resource
	Cleanup  Cleanup
}

func (a CleanupAction) String() string {
	return fmt.Sprintf("cleanup{%v %v owner=%d %v}", a.Cleanup, a.Resource, a.Owner, a.Node)
}

// Space is the system-wide capability state: every capability of every
// trust domain lives in one lineage forest rooted at the boot-time
// capabilities.
//
// Space is safe for concurrent use under one RWMutex. The operations
// that change the forest, the index or a seal flag — CreateRoot, Share,
// Grant, Seal and the detach family (Detach, DetachOwner, Release, and
// Revoke/RevokeOwner composed from them) — hold it exclusively; every
// query, Sealed included, holds it shared. The generation, op, node and
// limbo counters are atomics because the monitor reads them without
// the lock. No Space lock is ever held across a call out of the
// package.
//
// Which structure answers which question: a question about one owner —
// its memory grants, cores, devices, nodes, an access check, the tops of
// its teardown — walks owned[owner], so it costs what the owner holds,
// in ascending-ID order with no sort. A question about every owner
// (reference counts, device holders, tree dumps) ranges nodes and costs
// what the machine holds; who the owners are is the keys of owned. Go
// randomises map iteration, so nothing that stops early or must be
// ordered ranges a map.
type Space struct {
	mu sync.RWMutex

	nodes  map[NodeID]*node
	sealed map[OwnerID]bool
	// owned[o] lists o's indexed nodes in insertion order, which is
	// ascending ID order: an ID is drawn with mu held exclusively.
	owned  map[OwnerID][]*node
	nextID NodeID

	gen      atomic.Uint64
	ops      atomic.Uint64
	numNodes atomic.Int64
	limbo    atomic.Int64 // detached, not yet released (detach.go)
}

// NewSpace returns an empty capability space.
func NewSpace() *Space {
	return &Space{
		nodes:  make(map[NodeID]*node),
		sealed: make(map[OwnerID]bool),
		owned:  make(map[OwnerID][]*node),
		nextID: 1,
	}
}

// Generation increments on every mutation; backends use it to detect
// staleness of derived hardware state.
func (s *Space) Generation() uint64 { return s.gen.Load() }

// Ops returns the number of mutating operations performed.
func (s *Space) Ops() uint64 { return s.ops.Load() }

// NumNodes returns the number of live capability nodes.
func (s *Space) NumNodes() int { return int(s.numNodes.Load()) }

func (s *Space) mutate() { s.gen.Add(1); s.ops.Add(1) }

// insert gives n the next ID, indexes it and counts the mutation. Caller
// holds mu exclusively.
func (s *Space) insert(n *node) NodeID {
	n.id = s.nextID
	s.nextID++
	s.nodes[n.id] = n
	s.owned[n.owner] = append(s.owned[n.owner], n)
	s.numNodes.Add(1)
	s.mutate()
	return n.id
}

// remove unindexes n. Caller holds mu exclusively.
func (s *Space) remove(n *node) {
	delete(s.nodes, n.id)
	l := s.owned[n.owner]
	if i := slices.Index(l, n); i >= 0 {
		l = slices.Delete(l, i, i+1)
	}
	if len(l) == 0 {
		delete(s.owned, n.owner)
	} else {
		s.owned[n.owner] = l
	}
	s.numNodes.Add(-1)
}

// CreateRoot mints a root capability for owner. Only the monitor calls
// this, at boot, to hand the initial domain the machine's resources.
func (s *Space) CreateRoot(owner OwnerID, res Resource, rights Rights, cleanup Cleanup) (NodeID, error) {
	if err := res.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if !rights.Subset(res.ValidRights()) {
		return 0, fmt.Errorf("%w: rights %v not valid for %v", ErrInvalid, rights, res.Kind)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed[owner] {
		return 0, fmt.Errorf("%w: owner %d cannot receive new capabilities", ErrSealed, owner)
	}
	return s.insert(&node{owner: owner, res: res, rights: rights, cleanup: cleanup, kind: KindRoot}), nil
}

// get looks a node up in the index. Caller holds mu.
func (s *Space) get(id NodeID) (*node, error) {
	n, ok := s.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	return n, nil
}

// derive validates and creates a child capability of kind k.
func (s *Space) derive(id NodeID, newOwner OwnerID, sub Resource, rights Rights, cleanup Cleanup, k NodeKind) (NodeID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	parent, err := s.get(id)
	if err != nil {
		return 0, err
	}
	need := RightShare
	if k == KindGranted {
		need = RightGrant
	}
	if !parent.rights.Has(need) {
		return 0, fmt.Errorf("%w: %v needs %v", ErrNoDelegation, parent.res, need)
	}
	// A sealed domain cannot have its resource set extended (§3.1).
	// Sharing *out of* a sealed domain remains possible: it is a
	// voluntary act of the sealed domain, and it is visible to verifiers
	// because it raises the region's reference count — this is what lets
	// sealed Tyche-enclaves spawn nested enclaves and share pages with
	// them (§4.2).
	if s.sealed[newOwner] {
		return 0, fmt.Errorf("%w: owner %d cannot receive new capabilities", ErrSealed, newOwner)
	}
	if err := sub.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if !parent.res.ContainsResource(sub) {
		return 0, fmt.Errorf("%w: %v not within %v", ErrSubresource, sub, parent.res)
	}
	if !rights.Subset(parent.rights) {
		return 0, fmt.Errorf("%w: %v ⊄ %v", ErrRights, rights, parent.rights)
	}
	// For memory, the sub-resource must lie within the *effective*
	// region: what the parent granted away is not the parent's to
	// delegate again until revoked.
	if sub.Kind == ResMemory {
		// parent.res contains sub (checked above), so sub is covered
		// exactly when the effective piece holding its first byte runs
		// to its end: no granted child overlaps it.
		if effectiveEnd(parent, sub.Mem.Start) < sub.Mem.End {
			return 0, fmt.Errorf("%w: %v already granted away from %v", ErrSubresource, sub.Mem, parent.res)
		}
	} else if k == KindGranted && grantedAway(parent) {
		// Granting a core or device suspends the parent's use entirely;
		// re-granting an already-granted core/device is invalid.
		return 0, fmt.Errorf("%w: %v already granted away", ErrSubresource, sub)
	}
	n := &node{owner: newOwner, res: sub, rights: rights, cleanup: cleanup, kind: k, parent: parent}
	parent.children = append(parent.children, n)
	return s.insert(n), nil
}

// Share derives a child capability for newOwner over sub, keeping the
// parent's access intact (controlled sharing: the region's reference
// count rises).
func (s *Space) Share(id NodeID, newOwner OwnerID, sub Resource, rights Rights, cleanup Cleanup) (NodeID, error) {
	return s.derive(id, newOwner, sub, rights, cleanup, KindShared)
}

// Grant derives a child capability for newOwner over sub and suspends
// the parent's access to it: exclusive, revocable transfer.
func (s *Space) Grant(id NodeID, newOwner OwnerID, sub Resource, rights Rights, cleanup Cleanup) (NodeID, error) {
	return s.derive(id, newOwner, sub, rights, cleanup, KindGranted)
}

// Revoke removes the capability and its entire derivation subtree,
// children first, returning the cleanup actions in execution order.
// Because lineage is a tree (every share/grant mints a fresh node),
// revocation terminates even when domains have shared a region back and
// forth in a cycle. It is the two phases of detach.go run back to
// back, for a caller with no grace period to wait out between them.
func (s *Space) Revoke(id NodeID) ([]CleanupAction, error) {
	det, err := s.Detach(id)
	if err != nil {
		return nil, err
	}
	s.Release(det)
	return det.Actions(), nil
}

// RevokeOwner tears down every capability owned by owner (and therefore
// everything ever derived from those capabilities) and clears its seal
// flag: DetachOwner, then Release at once.
func (s *Space) RevokeOwner(owner OwnerID) []CleanupAction {
	det := s.DetachOwner(owner)
	s.Release(det)
	return det.Actions()
}

// ownerTops returns, in ID order, owner's nodes that have no ancestor of
// the same owner: revoking their subtrees reaches every node owner
// holds. A fresh slice — the teardown edits the list it was read from.
// Caller holds mu.
func (s *Space) ownerTops(owner OwnerID) []*node {
	var tops []*node
	for _, n := range s.owned[owner] {
		anc := n.parent
		for anc != nil && anc.owner != owner {
			anc = anc.parent
		}
		if anc == nil {
			tops = append(tops, n)
		}
	}
	return tops
}

func removeChild(children []*node, target *node) []*node {
	for i, c := range children {
		if c == target {
			return append(children[:i], children[i+1:]...)
		}
	}
	return children
}

// Seal freezes owner's resource set: it can no longer receive
// capabilities (§3.1: "domains can be sealed, so that their resources
// cannot be extended").
func (s *Space) Seal(owner OwnerID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed[owner] = true
	s.mutate()
}

// Sealed reports whether owner is sealed.
func (s *Space) Sealed(owner OwnerID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sealed[owner]
}

// Node returns a snapshot of the capability id.
func (s *Space) Node(id NodeID) (Info, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, err := s.get(id)
	if err != nil {
		return Info{}, err
	}
	return s.info(n), nil
}

// NodeOwners returns the owner of capability id and, unless it is a
// root, the owner of the capability it was derived from: the two
// parties entitled to revoke it. Unlike Node it snapshots no children.
func (s *Space) NodeOwners(id NodeID) (owner, parent OwnerID, derived bool, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, err := s.get(id)
	if err != nil {
		return 0, 0, false, err
	}
	if n.parent == nil {
		return n.owner, 0, false, nil
	}
	return n.owner, n.parent.owner, true, nil
}

// info snapshots a node; the caller holds mu.
func (s *Space) info(n *node) Info {
	inf := Info{
		ID: n.id, Owner: n.owner, Resource: n.res, Rights: n.rights,
		Cleanup: n.cleanup, Kind: n.kind,
	}
	if n.parent != nil {
		inf.Parent = n.parent.id
	}
	for _, c := range n.children {
		if c.detached {
			continue // limbo children are no longer observable
		}
		inf.Children = append(inf.Children, c.id)
	}
	sort.Slice(inf.Children, func(i, j int) bool { return inf.Children[i] < inf.Children[j] })
	return inf
}

// OwnerNodes returns snapshots of every capability owned by owner, in
// ID order.
func (s *Space) OwnerNodes(owner OwnerID) []Info {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Info
	for _, n := range s.owned[owner] {
		out = append(out, s.info(n))
	}
	return out
}

// appendEffective appends the memory n actually confers access to — its
// region minus every granted-out child region, detached ones included
// until Release unlinks them — and returns the extended slice. The carve
// runs in place on the appended tail: it starts as one region, and
// subtracting from a sorted, disjoint, non-adjacent list leaves it
// sorted, disjoint and non-adjacent, so there is nothing to sort or
// merge afterwards. The caller holds mu.
func appendEffective(dst []phys.Region, n *node) []phys.Region {
	if n.res.Kind != ResMemory {
		return dst
	}
	base := len(dst)
	dst = append(dst, n.res.Mem)
	for _, c := range n.children {
		if c.kind == KindGranted && c.res.Kind == ResMemory {
			dst = carve(dst, base, c.res.Mem)
		}
	}
	return dst
}

// carve subtracts cut from the sorted disjoint regions regs[base:].
func carve(regs []phys.Region, base int, cut phys.Region) []phys.Region {
	w := base
	for i := base; i < len(regs); i++ {
		r := regs[i]
		left, right := r.Start < cut.Start, cut.End < r.End
		switch {
		case !r.Overlaps(cut):
		case left && right:
			// cut lies strictly inside r, so it touches no other piece
			// and nothing before r was dropped (w == i): split and stop.
			regs[i].End = cut.Start
			return slices.Insert(regs, i+1, phys.Region{Start: cut.End, End: r.End})
		case left:
			r.End = cut.Start
		case right:
			r.Start = cut.End
		default:
			continue // r lies inside cut
		}
		regs[w] = r
		w++
	}
	return regs[:w]
}

// effectiveEnd returns the end of n's effective piece holding a — n's
// region up to the first granted-out child past a — or a itself when n
// confers no access there. It answers the yes/no questions (an access
// check, derive's "not granted away") without materialising regions.
// The caller holds mu.
func effectiveEnd(n *node, a phys.Addr) phys.Addr {
	if n.res.Kind != ResMemory || !n.res.Mem.Contains(a) {
		return a
	}
	end := n.res.Mem.End
	for _, c := range n.children {
		if c.kind != KindGranted || c.res.Kind != ResMemory {
			continue
		}
		if c.res.Mem.Contains(a) {
			return a
		}
		if a < c.res.Mem.Start && c.res.Mem.Start < end {
			end = c.res.Mem.Start
		}
	}
	return end
}

// EffectiveRegions returns the node's effective memory regions.
func (s *Space) EffectiveRegions(id NodeID) ([]phys.Region, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, err := s.get(id)
	if err != nil {
		return nil, err
	}
	return appendEffective(nil, n), nil
}

// OwnerMemory returns the union of owner's effective memory regions that
// carry at least the rights in want (normalized).
func (s *Space) OwnerMemory(owner OwnerID, want Rights) []phys.Region {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var regs []phys.Region
	for _, n := range s.owned[owner] {
		if n.rights.Has(want) {
			regs = appendEffective(regs, n)
		}
	}
	return phys.NormalizeRegions(regs)
}

// MemoryGrants enumerates owner's effective memory access as
// (region, rights) pairs per capability, for backend programming. The
// backend resolves overlaps by OR-ing permissions.
type MemoryGrant struct {
	Region phys.Region
	Rights Rights
	Node   NodeID
}

// OwnerMemoryGrants returns owner's effective per-capability memory
// access, ordered by node ID.
func (s *Space) OwnerMemoryGrants(owner OwnerID) []MemoryGrant {
	return s.AppendOwnerMemoryGrants(nil, owner)
}

// AppendOwnerMemoryGrants appends OwnerMemoryGrants(owner) to dst, for a
// caller that rebuilds a filter into a buffer it reuses.
func (s *Space) AppendOwnerMemoryGrants(dst []MemoryGrant, owner OwnerID) []MemoryGrant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var buf [8]phys.Region // a node's pieces: one unless grants split it
	for _, n := range s.owned[owner] {
		for _, r := range appendEffective(buf[:0], n) {
			dst = append(dst, MemoryGrant{Region: r, Rights: n.rights, Node: n.id})
		}
	}
	return dst
}

// OwnerCores returns the cores owner may run on (holding RightRun),
// minus cores granted away, sorted.
func (s *Space) OwnerCores(owner OwnerID) []phys.CoreID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []phys.CoreID
	for _, n := range s.owned[owner] {
		if n.res.Kind == ResCore && n.rights.Has(RightRun) && !grantedAway(n) {
			out = append(out, n.res.Core)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// grantedAway reports whether n's core or device — delegated whole or
// not at all — is granted to a child. Caller holds mu.
func grantedAway(n *node) bool {
	for _, c := range n.children {
		if c.kind == KindGranted && c.res.Kind == n.res.Kind && c.res.Core == n.res.Core && c.res.Device == n.res.Device {
			return true
		}
	}
	return false
}

// OwnerHasCore reports whether owner holds RightRun on core.
func (s *Space) OwnerHasCore(owner OwnerID, core phys.CoreID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, n := range s.owned[owner] {
		if n.res.Kind == ResCore && n.res.Core == core && n.rights.Has(RightRun) && !grantedAway(n) {
			return true
		}
	}
	return false
}

// OwnerDevices returns the devices owner may use, minus devices granted
// away, sorted.
func (s *Space) OwnerDevices(owner OwnerID) []phys.DeviceID {
	return s.appendOwnerDevices(nil, owner, RightUse)
}

// AppendOwnerDMADevices appends to dst the devices owner holds live (not
// granted-away) DMA rights on, sorted: the inverse of DeviceDMAHolders,
// answered from the owner's own list.
func (s *Space) AppendOwnerDMADevices(dst []phys.DeviceID, owner OwnerID) []phys.DeviceID {
	return s.appendOwnerDevices(dst, owner, RightDMA)
}

func (s *Space) appendOwnerDevices(dst []phys.DeviceID, owner OwnerID, want Rights) []phys.DeviceID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	base := len(dst)
	for _, n := range s.owned[owner] {
		if n.res.Kind == ResDevice && n.rights.Has(want) && !grantedAway(n) {
			dst = append(dst, n.res.Device)
		}
	}
	slices.Sort(dst[base:])
	return dst[:base+len(slices.Compact(dst[base:]))]
}

// OwnerHasDevice reports whether owner holds RightUse on dev.
func (s *Space) OwnerHasDevice(owner OwnerID, dev phys.DeviceID) bool {
	for _, d := range s.OwnerDevices(owner) {
		if d == dev {
			return true
		}
	}
	return false
}

// CheckMemAccess reports whether owner has effective access with rights
// want at address a: some node with the rights contains a and no granted
// child of it does.
func (s *Space) CheckMemAccess(owner OwnerID, a phys.Addr, want Rights) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.coveredUntil(owner, a, want) > a
}

// CheckMemRange is CheckMemAccess for every page of r under one lock
// hold, with the same per-page meaning: different pages may be covered
// by different nodes. It returns the first address owner lacks want at,
// and whether there is none.
func (s *Space) CheckMemRange(owner OwnerID, r phys.Region, want Rights) (phys.Addr, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for at := r.Start; at < r.End; {
		end := s.coveredUntil(owner, at, want)
		if end <= at {
			return at, false
		}
		at = end
	}
	return 0, true
}

// coveredUntil returns how far owner's access with rights want runs
// unbroken from a through any one node — a itself if it has none there.
// The caller holds mu.
func (s *Space) coveredUntil(owner OwnerID, a phys.Addr, want Rights) phys.Addr {
	end := a
	for _, n := range s.owned[owner] {
		if n.rights.Has(want) {
			end = max(end, effectiveEnd(n, a))
		}
	}
	return end
}

// Owners returns every owner holding at least one capability, sorted.
func (s *Space) Owners() []OwnerID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]OwnerID, 0, len(s.owned)) // owned holds no empty list
	for o := range s.owned {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
}
