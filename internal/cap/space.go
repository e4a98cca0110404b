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
	// id, owner, res, rights, cleanup, kind, and parent are immutable
	// after creation; children is guarded by the owner's shard lock.
	// detached marks a node removed from the index by a two-phase
	// revocation but not yet released (detach.go); it is written only
	// under the structural writer lock.
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

// numShards is the owner-shard count; shardFor masks with it, so it
// must stay a power of two.
const numShards = 16

// Space is the system-wide capability state: every capability of every
// trust domain lives in one lineage forest rooted at the boot-time
// capabilities.
//
// Space is safe for concurrent use. The locking is layered:
//
//   - A structural RWMutex (mu) is held exclusively only by the revoke
//     family (Revoke, RevokeOwner) — the operations that unlink nodes
//     and therefore cannot tolerate any concurrent reader of the
//     lineage forest. Every other operation holds it shared.
//   - Owner shards: owners hash onto numShards RWMutexes. A node's
//     mutable state (its children list) and an owner's seal flag are
//     guarded by the owner's shard. Delegations lock the source and
//     destination owners' shards; cross-owner operations always
//     acquire multiple shards in ascending shard-index order, so
//     concurrent Share/Grant between disjoint owner pairs proceed in
//     parallel without deadlock.
//   - Global sweeps (reference counts, device holders, owner
//     enumeration, tree dumps) hold every shard shared, which excludes
//     in-flight delegations and yields a consistent snapshot without the
//     writer lock.
//
// Identity lookups go through a lock-free node index (sync.Map);
// generation, op, and node counters are atomics. The lock order is
// mu before shards, shards in ascending index; no Space lock is ever
// held across a call out of the package.
//
// Which structure answers which question: a question about one owner —
// its memory grants, cores, devices, nodes, an access check, the tops of
// its teardown — walks that owner's own list (owned) under that owner's
// shard, so it costs what the owner holds, in ascending-ID order with no
// sort. A question about every owner (the sweeps above) ranges the index
// under all shards and costs what the machine holds. sync.Map iterates
// in an order drawn from a per-map random seed, so nothing that stops
// early or must be ordered may range it.
type Space struct {
	mu     sync.RWMutex // structural: exclusive for revoke paths only
	shards [numShards]sync.RWMutex

	nodes  sync.Map // NodeID -> *node
	sealed sync.Map // OwnerID -> bool
	// owned[shardFor(o)][o] lists o's indexed nodes in insertion order,
	// which is ascending ID order: an ID is drawn with the owner's shard
	// held exclusively. Guarded like the seal flag by the owner's shard;
	// the revoke family edits it under the exclusive structural lock.
	owned [numShards]map[OwnerID][]*node

	nextID   atomic.Uint64
	gen      atomic.Uint64
	ops      atomic.Uint64
	numNodes atomic.Int64
	limbo    atomic.Int64 // detached, not yet reclaimed (detach.go)
}

// NewSpace returns an empty capability space.
func NewSpace() *Space {
	s := &Space{}
	for i := range s.owned {
		s.owned[i] = make(map[OwnerID][]*node)
	}
	s.nextID.Store(1)
	return s
}

func shardFor(o OwnerID) int { return int(o) & (numShards - 1) }

// lockOwners write-locks the shards of the given owners in ascending
// shard order (deduplicated) and returns the unlock function. Callers
// must hold mu (shared or exclusive is irrelevant — shard locks nest
// inside mu).
func (s *Space) lockOwners(owners ...OwnerID) func() {
	var mask uint
	for _, o := range owners {
		mask |= 1 << uint(shardFor(o))
	}
	for i := 0; i < numShards; i++ {
		if mask&(1<<uint(i)) != 0 {
			s.shards[i].Lock()
		}
	}
	return func() {
		for i := numShards - 1; i >= 0; i-- {
			if mask&(1<<uint(i)) != 0 {
				s.shards[i].Unlock()
			}
		}
	}
}

// rlockOwner read-locks one owner's shard and returns it to RUnlock: an
// unlock func would be a heap object per call, on the request path.
func (s *Space) rlockOwner(o OwnerID) *sync.RWMutex {
	sh := &s.shards[shardFor(o)]
	sh.RLock()
	return sh
}

// rlockAll read-locks every shard in ascending order — the sweep lock
// for queries touching nodes of arbitrary owners.
func (s *Space) rlockAll() func() {
	for i := range s.shards {
		s.shards[i].RLock()
	}
	return func() {
		for i := numShards - 1; i >= 0; i-- {
			s.shards[i].RUnlock()
		}
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

func (s *Space) isSealed(o OwnerID) bool {
	v, ok := s.sealed.Load(o)
	return ok && v.(bool)
}

// insert indexes n. Caller holds n.owner's shard exclusively.
func (s *Space) insert(n *node) {
	s.nodes.Store(n.id, n)
	own := s.owned[shardFor(n.owner)]
	own[n.owner] = append(own[n.owner], n)
	s.numNodes.Add(1)
}

// remove unindexes n. Caller holds the structural writer lock.
func (s *Space) remove(n *node) {
	s.nodes.Delete(n.id)
	own := s.owned[shardFor(n.owner)]
	l := own[n.owner]
	if i := slices.Index(l, n); i >= 0 {
		l = slices.Delete(l, i, i+1)
	}
	if len(l) == 0 {
		delete(own, n.owner)
	} else {
		own[n.owner] = l
	}
	s.numNodes.Add(-1)
}

// ownedBy returns owner's indexed nodes in ascending ID order. The caller
// holds the owner's shard (or the structural writer lock) and neither
// keeps nor edits the slice.
func (s *Space) ownedBy(owner OwnerID) []*node { return s.owned[shardFor(owner)][owner] }

// CreateRoot mints a root capability for owner. Only the monitor calls
// this, at boot, to hand the initial domain the machine's resources.
func (s *Space) CreateRoot(owner OwnerID, res Resource, rights Rights, cleanup Cleanup) (NodeID, error) {
	if err := res.Validate(); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if !rights.Subset(res.ValidRights()) {
		return 0, fmt.Errorf("%w: rights %v not valid for %v", ErrInvalid, rights, res.Kind)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	unlock := s.lockOwners(owner)
	defer unlock()
	if s.isSealed(owner) {
		return 0, fmt.Errorf("%w: owner %d cannot receive new capabilities", ErrSealed, owner)
	}
	n := &node{id: NodeID(s.nextID.Add(1) - 1), owner: owner, res: res, rights: rights, cleanup: cleanup, kind: KindRoot}
	s.insert(n)
	s.mutate()
	return n.id, nil
}

// get looks a node up in the index. Safe without shard locks: node
// identity fields are immutable, and unlinking only happens under the
// exclusive structural lock.
func (s *Space) get(id NodeID) (*node, error) {
	v, ok := s.nodes.Load(id)
	if !ok {
		return nil, fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	return v.(*node), nil
}

// derive validates and creates a child capability of kind k.
func (s *Space) derive(id NodeID, newOwner OwnerID, sub Resource, rights Rights, cleanup Cleanup, k NodeKind) (NodeID, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	parent, err := s.get(id)
	if err != nil {
		return 0, err
	}
	// Lock the delegation's two owners — parent's (its children list and
	// effective regions) and the receiver's (its seal flag) — in shard
	// order.
	unlock := s.lockOwners(parent.owner, newOwner)
	defer unlock()
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
	if s.isSealed(newOwner) {
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
		if !regionCovered(sub.Mem, s.effectiveRegions(parent)) {
			return 0, fmt.Errorf("%w: %v already granted away from %v", ErrSubresource, sub.Mem, parent.res)
		}
	} else if k == KindGranted && grantedAway(parent) {
		// Granting a core or device suspends the parent's use entirely;
		// re-granting an already-granted core/device is invalid.
		return 0, fmt.Errorf("%w: %v already granted away", ErrSubresource, sub)
	}
	n := &node{
		id: NodeID(s.nextID.Add(1) - 1), owner: newOwner, res: sub, rights: rights,
		cleanup: cleanup, kind: k, parent: parent,
	}
	parent.children = append(parent.children, n)
	s.insert(n)
	s.mutate()
	return n.id, nil
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
// forth in a cycle.
//
// Revocation takes the structural lock exclusively: subtree unlinking
// crosses owner shards arbitrarily, so it is the one operation that
// falls back to the global writer lock.
func (s *Space) Revoke(id NodeID) ([]CleanupAction, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.get(id)
	if err != nil {
		return nil, err
	}
	var actions []CleanupAction
	s.revokeSubtree(n, &actions)
	if n.parent != nil {
		n.parent.children = removeChild(n.parent.children, n)
	}
	s.mutate()
	return actions, nil
}

func (s *Space) revokeSubtree(n *node, actions *[]CleanupAction) {
	for _, c := range n.children {
		if c.detached {
			continue // in limbo: already counted by its Detach
		}
		s.revokeSubtree(c, actions)
	}
	n.children = nil
	s.remove(n)
	*actions = append(*actions, CleanupAction{
		Node: n.id, Owner: n.owner, Resource: n.res, Cleanup: n.cleanup,
	})
}

// RevokeOwner tears down every capability owned by owner (and therefore
// everything ever derived from those capabilities). Used when a domain
// is killed. Like Revoke, it holds the structural lock exclusively.
func (s *Space) RevokeOwner(owner OwnerID) []CleanupAction {
	s.mu.Lock()
	defer s.mu.Unlock()
	var actions []CleanupAction
	for _, n := range s.ownerTops(owner) {
		if _, ok := s.nodes.Load(n.id); !ok {
			continue // already revoked via an earlier top's subtree
		}
		s.revokeSubtree(n, &actions)
		if n.parent != nil {
			n.parent.children = removeChild(n.parent.children, n)
		}
	}
	if len(actions) > 0 {
		s.mutate()
	}
	s.sealed.Delete(owner)
	return actions
}

// ownerTops returns, in ID order, owner's nodes that have no ancestor of
// the same owner: revoking their subtrees reaches every node owner
// holds. A fresh slice — the teardown edits the list it was read from.
// Caller holds the structural writer lock.
func (s *Space) ownerTops(owner OwnerID) []*node {
	var tops []*node
	for _, n := range s.ownedBy(owner) {
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	unlock := s.lockOwners(owner)
	defer unlock()
	s.sealed.Store(owner, true)
	s.mutate()
}

// Sealed reports whether owner is sealed.
func (s *Space) Sealed(owner OwnerID) bool { return s.isSealed(owner) }

// Node returns a snapshot of the capability id.
func (s *Space) Node(id NodeID) (Info, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, err := s.get(id)
	if err != nil {
		return Info{}, err
	}
	defer s.rlockOwner(n.owner).RUnlock()
	return s.info(n), nil
}

// NodeOwners returns the owner of capability id and, unless it is a
// root, the owner of the capability it was derived from: the two
// parties entitled to revoke it. Both are fixed at creation, so unlike
// Node this takes no shard lock and snapshots no children.
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

// info snapshots a node; the caller holds the node's owner shard.
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
	defer s.rlockOwner(owner).RUnlock()
	var out []Info
	for _, n := range s.ownedBy(owner) {
		out = append(out, s.info(n))
	}
	return out
}

// effectiveRegions returns the memory the node actually confers access
// to: its region minus every active granted-out child region. The
// caller holds the node's owner shard (or the structural writer lock).
func (s *Space) effectiveRegions(n *node) []phys.Region {
	if n.res.Kind != ResMemory {
		return nil
	}
	regs := []phys.Region{n.res.Mem}
	carved := false
	for _, c := range n.children {
		if c.kind != KindGranted || c.res.Kind != ResMemory {
			continue
		}
		carved = true
		var next []phys.Region
		for _, r := range regs {
			next = append(next, r.Subtract(c.res.Mem)...)
		}
		regs = next
	}
	if !carved {
		return regs // one validated, non-empty region is already normal
	}
	return phys.NormalizeRegions(regs)
}

// EffectiveRegions returns the node's effective memory regions.
func (s *Space) EffectiveRegions(id NodeID) ([]phys.Region, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, err := s.get(id)
	if err != nil {
		return nil, err
	}
	defer s.rlockOwner(n.owner).RUnlock()
	return s.effectiveRegions(n), nil
}

// regionCovered reports whether want lies entirely within the union of
// regs (regs must be normalized).
func regionCovered(want phys.Region, regs []phys.Region) bool {
	for _, r := range regs {
		if r.ContainsRegion(want) {
			return true
		}
	}
	return false
}

// OwnerMemory returns the union of owner's effective memory regions that
// carry at least the rights in want (normalized).
func (s *Space) OwnerMemory(owner OwnerID, want Rights) []phys.Region {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockOwner(owner).RUnlock()
	var regs []phys.Region
	for _, n := range s.ownedBy(owner) {
		if n.res.Kind == ResMemory && n.rights.Has(want) {
			regs = append(regs, s.effectiveRegions(n)...)
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockOwner(owner).RUnlock()
	nodes := s.ownedBy(owner)
	var out []MemoryGrant
	for i, n := range nodes {
		if n.res.Kind != ResMemory {
			continue
		}
		if out == nil {
			out = make([]MemoryGrant, 0, len(nodes)-i) // one region per node unless a grant splits it
		}
		for _, r := range s.effectiveRegions(n) {
			out = append(out, MemoryGrant{Region: r, Rights: n.rights, Node: n.id})
		}
	}
	return out
}

// OwnerCores returns the cores owner may run on (holding RightRun),
// minus cores granted away, sorted.
func (s *Space) OwnerCores(owner OwnerID) []phys.CoreID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockOwner(owner).RUnlock()
	var out []phys.CoreID
	for _, n := range s.ownedBy(owner) {
		if n.res.Kind == ResCore && n.rights.Has(RightRun) && !grantedAway(n) {
			out = append(out, n.res.Core)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// grantedAway reports whether n's core or device — delegated whole or
// not at all — is granted to a child. Requires n's owner shard (or the
// structural writer lock).
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
	defer s.rlockOwner(owner).RUnlock()
	for _, n := range s.ownedBy(owner) {
		if n.res.Kind == ResCore && n.res.Core == core && n.rights.Has(RightRun) && !grantedAway(n) {
			return true
		}
	}
	return false
}

// OwnerDevices returns the devices owner may use, minus devices granted
// away, sorted.
func (s *Space) OwnerDevices(owner OwnerID) []phys.DeviceID {
	return s.ownerDevices(owner, RightUse)
}

// OwnerDMADevices returns the devices owner holds live (not
// granted-away) DMA rights on, sorted: the inverse of DeviceDMAHolders,
// answered from the owner's own list.
func (s *Space) OwnerDMADevices(owner OwnerID) []phys.DeviceID {
	return s.ownerDevices(owner, RightDMA)
}

func (s *Space) ownerDevices(owner OwnerID, want Rights) []phys.DeviceID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockOwner(owner).RUnlock()
	var out []phys.DeviceID
	for _, n := range s.ownedBy(owner) {
		if n.res.Kind == ResDevice && n.rights.Has(want) && !grantedAway(n) {
			out = append(out, n.res.Device)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
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
// want at address a.
func (s *Space) CheckMemAccess(owner OwnerID, a phys.Addr, want Rights) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockOwner(owner).RUnlock()
	for _, n := range s.ownedBy(owner) {
		if n.res.Kind != ResMemory || !n.rights.Has(want) || !n.res.Mem.Contains(a) {
			continue
		}
		for _, r := range s.effectiveRegions(n) {
			if r.Contains(a) {
				return true
			}
		}
	}
	return false
}

// Owners returns every owner holding at least one capability, sorted.
func (s *Space) Owners() []OwnerID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer s.rlockAll()()
	set := make(map[OwnerID]bool)
	s.nodes.Range(func(_, v any) bool {
		set[v.(*node).owner] = true
		return true
	})
	out := make([]OwnerID, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
