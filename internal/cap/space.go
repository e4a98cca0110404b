package cap

import (
	"errors"
	"fmt"
	"slices"
	"sort"

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
	// id, owner, res, rights, cleanup and kind are set once, by insert,
	// and fixed until Reclaim recycles the node (detach.go).
	id       NodeID
	owner    OwnerID
	res      Resource
	rights   Rights
	cleanup  Cleanup
	kind     NodeKind
	parent   *node // on the free list, the next free node (detach.go)
	children []*node
	state    nodeState
}

// nodeState is where a node is in its life: indexed, detached by a
// revocation that has not been reclaimed yet, or on the space's free
// list (detach.go).
type nodeState uint8

const (
	nodeLive nodeState = iota
	nodeDetached
	nodeFree
)

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
// Which structure answers which question: a question about one owner —
// its memory grants, cores, devices, nodes, an access check, the tops of
// its teardown — walks owned[owner], so it costs what the owner holds,
// in ascending-ID order with no sort. A question about how one region is
// shared — how many owners hold any byte of it, what only one owner
// holds (MaxOwners, AppendExclusive in refcount.go) — gathers the
// effective pieces over that region, owner by owner, into a stack
// buffer: no map, sort or owner slice per call. A question about every
// owner's memory (the reference-count map, tree dumps) ranges nodes and
// costs what the machine holds; who the owners are is the keys of
// owned, and who holds a core or device — how many, or which, sorted —
// asks each owner's list once, with no set. Go randomises map
// iteration, so nothing ranges a map whose answer or order could depend
// on the visit order: the scoped sweeps and the holder questions range
// owned, but a count, a carve or a sorted list is the same in any
// order.
type Space struct {
	nodes  map[NodeID]*node
	sealed map[OwnerID]bool
	// owned[o] lists o's indexed nodes in insertion order, which is
	// ascending ID order. A live owner keeps its list when it empties;
	// a torn-down owner has none.
	owned  map[OwnerID][]*node
	nextID NodeID

	gen       uint64
	numNodes  int
	limbo     int       // detached, not yet released (detach.go)
	free      *Detached // reclaimed records, linked through next (detach.go)
	freeNodes *node     // reclaimed nodes, linked through parent (detach.go)
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
func (s *Space) Generation() uint64 { return s.gen }

// NumNodes returns the number of live capability nodes.
func (s *Space) NumNodes() int { return s.numNodes }

func (s *Space) mutate() { s.gen++ }

// insert makes a node under parent (nil for a root) with the next ID,
// indexes it and counts the mutation. The node comes off the free list
// when it holds one, keeping the storage of its children list; IDs are
// never reused, so an ID that named the node before is not found.
func (s *Space) insert(owner OwnerID, res Resource, rights Rights, cleanup Cleanup, kind NodeKind, parent *node) NodeID {
	n := s.freeNodes
	if n != nil {
		s.freeNodes = n.parent
	} else {
		n = new(node)
	}
	*n = node{id: s.nextID, owner: owner, res: res, rights: rights, cleanup: cleanup, kind: kind, parent: parent, children: n.children}
	s.nextID++
	if parent != nil {
		parent.children = append(parent.children, n)
	}
	s.nodes[n.id] = n
	s.owned[n.owner] = append(s.owned[n.owner], n)
	s.numNodes++
	s.mutate()
	return n.id
}

// remove unindexes n. An owner's emptied list stays, so its next
// capability reuses it; DetachOwner drops the list with the owner.
func (s *Space) remove(n *node) {
	delete(s.nodes, n.id)
	l := s.owned[n.owner]
	if i := slices.Index(l, n); i >= 0 {
		s.owned[n.owner] = slices.Delete(l, i, i+1)
	}
	s.numNodes--
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
	if s.sealed[owner] {
		return 0, fmt.Errorf("%w: owner %d cannot receive new capabilities", ErrSealed, owner)
	}
	return s.insert(owner, res, rights, cleanup, KindRoot, nil), nil
}

// get looks a node up in the index.
func (s *Space) get(id NodeID) (*node, error) {
	n, ok := s.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	return n, nil
}

// derive validates and creates a child capability of kind k.
func (s *Space) derive(id NodeID, newOwner OwnerID, sub Resource, rights Rights, cleanup Cleanup, k NodeKind) (NodeID, error) {
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
	} else if grantedAway(parent) {
		// Granting a core or device suspends the parent's use entirely,
		// and with it the parent's right to delegate it: neither a
		// re-grant nor a share of a granted-away core or device.
		return 0, fmt.Errorf("%w: %v already granted away", ErrSubresource, sub)
	}
	return s.insert(newOwner, sub, rights, cleanup, k, parent), nil
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
// back, for a caller with nothing to scrub between them.
func (s *Space) Revoke(id NodeID) ([]CleanupAction, error) {
	det, err := s.Detach(id)
	if err != nil {
		return nil, err
	}
	s.Release(det)
	return det.Actions(), nil
}

// ownerTops returns, in ID order, owner's nodes that have no ancestor of
// the same owner: revoking their subtrees reaches every node owner
// holds. A fresh slice — the teardown edits the list it was read from.
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
	s.sealed[owner] = true
	s.mutate()
}

// NodeOwners returns the owner of capability id and, unless it is a
// root, the owner of the capability it was derived from: the two
// parties entitled to revoke it. Unlike Node it snapshots no children.
func (s *Space) NodeOwners(id NodeID) (owner, parent OwnerID, derived bool, err error) {
	n, err := s.get(id)
	if err != nil {
		return 0, 0, false, err
	}
	if n.parent == nil {
		return n.owner, 0, false, nil
	}
	return n.owner, n.parent.owner, true, nil
}

// info snapshots a node;
func (s *Space) info(n *node) Info {
	inf := Info{
		ID: n.id, Owner: n.owner, Resource: n.res, Rights: n.rights,
		Cleanup: n.cleanup, Kind: n.kind,
	}
	if n.parent != nil {
		inf.Parent = n.parent.id
	}
	for _, c := range n.children {
		if c.state != nodeLive {
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
// merge afterwards.
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
	return s.AppendOwnerMemoryGrantsIn(dst, owner, phys.AllMemory)
}

// AppendOwnerMemoryGrantsIn appends owner's effective memory grants
// clipped to r, in node-ID order, dropping what lies outside it: the
// grants a rebuild of r's pages derives from. Nodes whose region misses
// r are skipped without carving their pieces.
func (s *Space) AppendOwnerMemoryGrantsIn(dst []MemoryGrant, owner OwnerID, r phys.Region) []MemoryGrant {
	var buf [8]phys.Region // a node's pieces: one unless grants split it
	for _, n := range s.owned[owner] {
		if n.res.Kind != ResMemory || !n.res.Mem.Overlaps(r) {
			continue
		}
		for _, p := range appendEffective(buf[:0], n) {
			if p = p.Intersect(r); !p.Empty() {
				dst = append(dst, MemoryGrant{Region: p, Rights: n.rights, Node: n.id})
			}
		}
	}
	return dst
}

// OwnerCores returns the cores owner may run on (holding RightRun),
// minus cores granted away, sorted.
func (s *Space) OwnerCores(owner OwnerID) []phys.CoreID {
	var out []phys.CoreID
	for _, n := range s.owned[owner] {
		if n.res.Kind == ResCore && n.rights.Has(RightRun) && !grantedAway(n) {
			out = append(out, n.res.Core)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// OwnerCoreNode returns owner's first capability node for core, in ID
// order, whatever its rights.
func (s *Space) OwnerCoreNode(owner OwnerID, core phys.CoreID) (NodeID, bool) {
	for _, n := range s.owned[owner] {
		if n.res.Kind == ResCore && n.res.Core == core {
			return n.id, true
		}
	}
	return 0, false
}

// grantedAway reports whether n's core or device — delegated whole or
// not at all — is granted to a child.
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
// granted-away) DMA rights on, sorted: the inverse of AppendDeviceDMAHolders,
// answered from the owner's own list.
func (s *Space) AppendOwnerDMADevices(dst []phys.DeviceID, owner OwnerID) []phys.DeviceID {
	return s.appendOwnerDevices(dst, owner, RightDMA)
}

func (s *Space) appendOwnerDevices(dst []phys.DeviceID, owner OwnerID, want Rights) []phys.DeviceID {
	base := len(dst)
	for _, n := range s.owned[owner] {
		if n.res.Kind == ResDevice && n.rights.Has(want) && !grantedAway(n) {
			dst = append(dst, n.res.Device)
		}
	}
	slices.Sort(dst[base:])
	return dst[:base+len(slices.Compact(dst[base:]))]
}

// CheckMemAccess reports whether owner has effective access with rights
// want at address a: some node with the rights contains a and no granted
// child of it does.
func (s *Space) CheckMemAccess(owner OwnerID, a phys.Addr, want Rights) bool {
	return s.coveredUntil(owner, a, want) > a
}

// CheckMemRange is CheckMemAccess for every page of r, with the same
// per-page meaning: different pages may be covered
// by different nodes. It returns the first address owner lacks want at,
// and whether there is none.
func (s *Space) CheckMemRange(owner OwnerID, r phys.Region, want Rights) (phys.Addr, bool) {
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
func (s *Space) coveredUntil(owner OwnerID, a phys.Addr, want Rights) phys.Addr {
	end := a
	for _, n := range s.owned[owner] {
		if n.rights.Has(want) {
			end = max(end, effectiveEnd(n, a))
		}
	}
	return end
}
