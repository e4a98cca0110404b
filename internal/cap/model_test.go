package cap

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
)

// Bounded exhaustive model check: enumerate EVERY sequence of capability
// operations up to a fixed depth on a tiny world and verify the engine's
// invariants in each reachable state. Where the random fuzzers sample,
// this explores the full tree — the testing-side stand-in for the formal
// verification the paper plans for the capability model (§4.1: "written
// in safe Rust, and meant to be formally verified").
//
// World: 3 owners, 4 pages. Alphabet: a small set of share/grant/revoke
// /seal moves whose parameters cover the interesting interactions
// (overlap, re-delegation, circular sharing, revoking mid-lineage), and
// the two phases of a revocation run apart: publishes that stack up
// unreleased, then one retire of them all, as a drain round runs them.
// Every revocation that retires is reclaimed, so the derives that follow
// reuse its nodes; one through Space.Revoke is released and never
// reclaimed, so its nodes stay out of reuse while the nodes around them
// are recycled.

// modelWorld is one explored state: the space, the node handles the
// moves pick from, and the published revocations not yet retired.
type modelWorld struct {
	s       *Space
	nodes   []NodeID
	pending []*Detached
}

type modelOp struct {
	name  string
	apply func(w *modelWorld) error
}

// retire releases dets in order, then reclaims them in order: the
// monitor's tail of a revocation, a drain round or a kill.
func retire(s *Space, dets ...*Detached) {
	for _, det := range dets {
		s.Release(det)
	}
	for _, det := range dets {
		s.Reclaim(det)
	}
}

func modelAlphabet() []modelOp {
	region := func(pg0, n uint64) Resource {
		return MemResource(phys.MakeRegion(phys.Addr(pg0*pg), n*pg))
	}
	pick := func(nodes []NodeID, i int) (NodeID, bool) {
		if len(nodes) == 0 {
			return 0, false
		}
		return nodes[i%len(nodes)], true
	}
	return []modelOp{
		{"share0->2", func(w *modelWorld) error {
			n, ok := pick(w.nodes, 0)
			if !ok {
				return nil
			}
			id, err := w.s.Share(n, 2, region(0, 2), MemRW|RightShare|RightGrant, CleanZero)
			if err == nil {
				w.nodes = append(w.nodes, id)
			}
			return nil
		}},
		{"grant1->3", func(w *modelWorld) error {
			n, ok := pick(w.nodes, 0)
			if !ok {
				return nil
			}
			id, err := w.s.Grant(n, 3, region(1, 2), MemRW|RightShare, CleanObfuscate)
			if err == nil {
				w.nodes = append(w.nodes, id)
			}
			return nil
		}},
		{"share-last->1", func(w *modelWorld) error {
			n, ok := pick(w.nodes, len(w.nodes)-1)
			if !ok {
				return nil
			}
			id, err := w.s.Share(n, 1, region(0, 1), MemRW, CleanNone)
			if err == nil {
				w.nodes = append(w.nodes, id)
			}
			return nil
		}},
		{"revoke-mid", func(w *modelWorld) error {
			n, ok := pick(w.nodes, 1)
			if !ok {
				return nil
			}
			_, _ = w.s.Revoke(n)
			return nil
		}},
		{"retire-mid", func(w *modelWorld) error {
			n, ok := pick(w.nodes, 1)
			if !ok {
				return nil
			}
			if det, err := w.s.Detach(n); err == nil {
				retire(w.s, det)
			}
			return nil
		}},
		{"revoke-owner-2", func(w *modelWorld) error {
			retire(w.s, w.s.DetachOwner(2))
			return ownedMatchesIndex(w.s, 2)
		}},
		{"seal-3", func(w *modelWorld) error {
			w.s.Seal(3)
			return nil
		}},
		{"publish-last", func(w *modelWorld) error {
			n, ok := pick(w.nodes, len(w.nodes)-1)
			if !ok {
				return nil
			}
			if det, err := w.s.Detach(n); err == nil {
				w.pending = append(w.pending, det)
			}
			return nil
		}},
		{"retire-pending", func(w *modelWorld) error {
			retire(w.s, w.pending...)
			w.pending = w.pending[:0]
			return nil
		}},
	}
}

func TestCapabilityModelExhaustive(t *testing.T) {
	ops := modelAlphabet()
	const depth = 5
	var sequences [][]int
	var gen func(prefix []int)
	gen = func(prefix []int) {
		if len(prefix) == depth {
			seq := make([]int, depth)
			copy(seq, prefix)
			sequences = append(sequences, seq)
			return
		}
		for i := range ops {
			gen(append(prefix, i))
		}
	}
	gen(nil)
	t.Logf("exploring %d sequences of depth %d", len(sequences), depth)

	for _, seq := range sequences {
		s := NewSpace()
		root, err := s.CreateRoot(1, mem(0, 4), MemFull, CleanNone)
		if err != nil {
			t.Fatal(err)
		}
		w := &modelWorld{s: s, nodes: []NodeID{root}}
		for step, opIdx := range seq {
			if err := ops[opIdx].apply(w); err != nil {
				t.Fatalf("seq %v step %d (%s): %v", seq, step, ops[opIdx].name, err)
			}
			// Drop dead node handles.
			live := w.nodes[:0]
			for _, id := range w.nodes {
				if _, err := s.Node(id); err == nil {
					live = append(live, id)
				}
			}
			w.nodes = live
			if err := modelInvariants(s); err != nil {
				t.Fatalf("seq %v after step %d (%s): %v", seq, step, ops[opIdx].name, err)
			}
			if err := recyclingSound(s, w.pending); err != nil {
				t.Fatalf("seq %v after step %d (%s): %v", seq, step, ops[opIdx].name, err)
			}
		}
	}
}

// recyclingSound checks the node free list against the rest of the
// space: every node on it is listed once and cleared, and none is
// reachable — through children or parent links, transitively — from the
// index or from a record in unreleased, which must be every record not
// yet released, as limbo counts them.
func recyclingSound(s *Space, unreleased []*Detached) error {
	free := make(map[*node]bool)
	for n := s.freeNodes; n != nil; n = n.parent {
		if free[n] {
			return fmt.Errorf("a node is on the free list twice")
		}
		if n.state != nodeFree || n.id != 0 || len(n.children) != 0 {
			return fmt.Errorf("a node on the free list is not cleared: %+v", *n)
		}
		free[n] = true
	}
	seen := make(map[*node]bool)
	var walk func(n *node, from string) error
	walk = func(n *node, from string) error {
		if n == nil || seen[n] {
			return nil
		}
		if free[n] || n.state == nodeFree {
			return fmt.Errorf("a node on the free list is reachable from %s", from)
		}
		seen[n] = true
		if err := walk(n.parent, from); err != nil {
			return err
		}
		for _, c := range n.children {
			if err := walk(c, from); err != nil {
				return err
			}
		}
		return nil
	}
	for _, n := range s.nodes {
		if err := walk(n, fmt.Sprintf("indexed node %d", n.id)); err != nil {
			return err
		}
	}
	limbo := 0
	for _, det := range unreleased {
		limbo += len(det.nodes)
		for _, n := range det.nodes {
			if err := walk(n, "an unreleased record"); err != nil {
				return err
			}
		}
	}
	if limbo != s.LimboNodes() {
		return fmt.Errorf("unreleased records hold %d nodes, limbo counts %d", limbo, s.LimboNodes())
	}
	return nil
}

// modelInvariants checks every global invariant of one state.
func modelInvariants(s *Space) error {
	// I1: refcounts are exactly the distinct owner counts.
	for pgN := uint64(0); pgN < 4; pgN++ {
		a := phys.Addr(pgN * pg)
		brute := 0
		for _, o := range s.Owners() {
			if s.CheckMemAccess(o, a, RightsNone) {
				brute++
			}
		}
		if got := s.RefCountAt(a); got != brute {
			return fmt.Errorf("page %d: refcount %d, brute %d", pgN, got, brute)
		}
	}
	// I2: lineage well-formed — every child within its parent, rights
	// attenuated, parents alive.
	for _, o := range s.Owners() {
		for _, inf := range s.OwnerNodes(o) {
			if inf.Parent == 0 {
				continue
			}
			p, err := s.Node(inf.Parent)
			if err != nil {
				return fmt.Errorf("node %d has dead parent %d", inf.ID, inf.Parent)
			}
			if !inf.Rights.Subset(p.Rights) {
				return fmt.Errorf("node %d rights exceed parent", inf.ID)
			}
			if !p.Resource.ContainsResource(inf.Resource) {
				return fmt.Errorf("node %d outside parent resource", inf.ID)
			}
			// Parent lists the child.
			found := false
			for _, c := range p.Children {
				if c == inf.ID {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("parent %d does not list child %d", p.ID, inf.ID)
			}
		}
	}
	// I3: granted ranges absent from the granter's effective view.
	for _, o := range s.Owners() {
		for _, inf := range s.OwnerNodes(o) {
			if inf.Resource.Kind != ResMemory {
				continue
			}
			eff, err := s.EffectiveRegions(inf.ID)
			if err != nil {
				return err
			}
			for _, cid := range inf.Children {
				c, err := s.Node(cid)
				if err != nil || c.Kind != KindGranted || c.Resource.Kind != ResMemory {
					continue
				}
				for _, r := range eff {
					if r.Overlaps(c.Resource.Mem) {
						return fmt.Errorf("node %d effective %v overlaps grant %v", inf.ID, r, c.Resource.Mem)
					}
				}
			}
		}
	}
	// I4: sealed owners hold no newer nodes than their seal admitted —
	// structurally: a sealed owner's node set cannot include a node
	// whose parent's owner differs (it would have had to *receive* it).
	// The derive path enforces this; here we merely confirm no sealed
	// owner has an unsealed-receive artifact.
	if err := ownedMatchesIndex(s); err != nil {
		return err
	}
	if err := carveMatchesReference(s); err != nil {
		return err
	}
	if err := scopedSweepsMatchRefCounts(s, sweepRegions(4)); err != nil {
		return err
	}
	if err := clippedGrantsMatchClip(s, sweepRegions(4)); err != nil {
		return err
	}
	return ownerQueriesMatchSweep(s)
}

// ownedMatchesIndex checks that the per-owner lists the access check
// walks hold exactly the indexed nodes, each under its owner, in
// insertion (ascending ID) order, with no list for a torn-down owner
// (those given, each freshly torn down).
func ownedMatchesIndex(s *Space, tornDown ...OwnerID) error {
	for _, o := range tornDown {
		if _, ok := s.owned[o]; ok {
			return fmt.Errorf("torn-down owner %d still has a list", o)
		}
	}
	listed := 0
	for o, l := range s.owned {
		for k, n := range l {
			if got, err := s.get(n.id); err != nil || got != n || n.owner != o {
				return fmt.Errorf("owner %d lists node %d, which the index does not hold for it", o, n.id)
			}
			if k > 0 && l[k-1].id >= n.id {
				return fmt.Errorf("owner %d: node %d listed after %d", o, n.id, l[k-1].id)
			}
		}
		listed += len(l)
	}
	if listed != len(s.nodes) || listed != s.NumNodes() {
		return fmt.Errorf("%d nodes listed by owner, %d indexed, %d counted", listed, len(s.nodes), s.NumNodes())
	}
	return nil
}

// sweepOwned is the reference every per-owner query is compared with:
// range the whole node index, keep owner's nodes, sort them by ID.
func sweepOwned(s *Space, owner OwnerID) []*node {
	var out []*node
	for _, n := range s.nodes {
		if n.owner == owner {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// sortedSet returns the distinct values of vs in ascending order, nil
// when there are none.
func sortedSet[T ~int | ~uint64](vs []T) []T {
	slices.Sort(vs)
	return slices.Compact(vs)
}

// ownerQueriesMatchSweep compares every query that walks an owner's own
// list with its brute-force reference over a sweep of the index, for
// every owner holding a capability and for one holding none.
func ownerQueriesMatchSweep(s *Space) error {
	live := func(n *node) bool { // a core or device not granted away
		for _, c := range n.children {
			if c.kind == KindGranted && c.res.Kind == n.res.Kind {
				return false
			}
		}
		return true
	}
	for _, o := range append(s.Owners(), 99) {
		var (
			nodes   []Info
			grants  []MemoryGrant
			all, rw []phys.Region
			cores   []phys.CoreID
			use     []phys.DeviceID
			dma     []phys.DeviceID
			tops    []*node
		)
		for _, n := range sweepOwned(s, o) {
			nodes = append(nodes, s.info(n))
			anc := n.parent
			for anc != nil && anc.owner != o {
				anc = anc.parent
			}
			if anc == nil {
				tops = append(tops, n)
			}
			switch n.res.Kind {
			case ResMemory:
				for _, r := range refEffectiveRegions(n) {
					grants = append(grants, MemoryGrant{Region: r, Rights: n.rights, Node: n.id})
					all = append(all, r)
					if n.rights.Has(RightWrite) {
						rw = append(rw, r)
					}
				}
			case ResCore:
				if n.rights.Has(RightRun) && live(n) {
					cores = append(cores, n.res.Core)
				}
			case ResDevice:
				if n.rights.Has(RightUse) && live(n) {
					use = append(use, n.res.Device)
				}
				if n.rights.Has(RightDMA) && live(n) {
					dma = append(dma, n.res.Device)
				}
			}
		}
		cores, use, dma = sortedSet(cores), sortedSet(use), sortedSet(dma)
		for _, q := range []struct {
			name      string
			got, want any
		}{
			{"OwnerNodes", s.OwnerNodes(o), nodes},
			{"OwnerMemoryGrants", s.OwnerMemoryGrants(o), grants},
			{"OwnerMemory(none)", s.OwnerMemory(o, RightsNone), phys.NormalizeRegions(all)},
			{"OwnerMemory(write)", s.OwnerMemory(o, RightWrite), phys.NormalizeRegions(rw)},
			{"OwnerCores", s.OwnerCores(o), cores},
			{"OwnerDevices", s.OwnerDevices(o), use},
			{"AppendOwnerDMADevices", s.AppendOwnerDMADevices(nil, o), dma},
			{"ownerTops", s.ownerTops(o), tops},
		} {
			// Every answer is a slice; an empty one may be nil or not.
			if empty := reflect.ValueOf(q.got).Len() == 0 && reflect.ValueOf(q.want).Len() == 0; !empty && !reflect.DeepEqual(q.got, q.want) {
				return fmt.Errorf("owner %d: %s walks its list to %v, the index sweep says %v", o, q.name, q.got, q.want)
			}
		}
		for c := phys.CoreID(0); c < 4; c++ {
			if got, want := s.OwnerHasCore(o, c), slices.Contains(cores, c); got != want {
				return fmt.Errorf("owner %d: OwnerHasCore(%v) = %v, the index sweep says %v", o, c, got, want)
			}
		}
		for d := phys.DeviceID(0); d < 4; d++ {
			if got, want := slices.Contains(s.AppendDeviceDMAHolders(nil, d), o), slices.Contains(dma, d); got != want {
				return fmt.Errorf("owner %d holds DMA on %v: DeviceDMAHolders says %v, the owner's nodes say %v", o, d, got, want)
			}
		}
	}
	return nil
}

// TestOwnerIndexFollowsDetach: the two-phase revoke unlists a subtree at
// its publish, like the index, and nothing later puts it back.
func TestOwnerIndexFollowsDetach(t *testing.T) {
	s := NewSpace()
	root, _ := s.CreateRoot(1, mem(0, 4), MemFull, CleanNone)
	mid, err := s.Share(root, 2, mem(0, 2), MemRW|RightShare, CleanZero)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Share(mid, 3, mem(0, 1), MemRW, CleanNone); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Share(root, 2, mem(3, 1), MemRW, CleanNone); err != nil {
		t.Fatal(err)
	}
	det, err := s.Detach(mid)
	if err != nil {
		t.Fatal(err)
	}
	snap := func() string {
		return fmt.Sprintf("%s%v limbo %d nodes %d", s.TreeString(), s.RefCounts(), s.LimboNodes(), s.NumNodes())
	}
	var released string
	for _, step := range []func(){
		func() {},
		func() { s.Release(det); released = snap() },
		// A second Release, and the Reclaim that hands the record back to
		// the free list, change nothing the space answers.
		func() { s.Release(det); s.Reclaim(det) },
	} {
		step()
		if err := ownedMatchesIndex(s); err != nil {
			t.Fatal(err)
		}
		if s.CheckMemAccess(2, 0, RightRead) || s.CheckMemAccess(3, 0, RightRead) {
			t.Fatal("a detached capability still grants access")
		}
		if !s.CheckMemAccess(2, phys.Addr(3*pg), RightRead) || !s.CheckMemAccess(1, 0, RightRead) {
			t.Fatal("a capability outside the detached subtree lost access")
		}
	}
	if got := snap(); got != released || s.LimboNodes() != 0 {
		t.Fatalf("a second Release or Reclaim changed the space:\n%s\nafter the first Release:\n%s", got, released)
	}
}

// TestReclaimReusesReleasedRecords: Reclaim hands a released record to
// the free list, where the next Detach or DetachOwner takes it, keeping
// nothing of its last use; on a record not yet released it does
// nothing — the parent stays suspended (fail closed) — and a second
// Reclaim does not list the record twice. The record's nodes go to the
// node free list, where the next derive takes them, in four cases
// besides the plain one: records stacked on one lineage, an unreleased
// record under a recycled parent, a record Revoke released and never
// reclaimed under a recycled parent, and a stale ID.
func TestReclaimReusesReleasedRecords(t *testing.T) {
	s := NewSpace()
	root, _ := s.CreateRoot(1, mem(0, 8), MemFull, CleanNone)
	grant := func(start uint64) NodeID {
		t.Helper()
		id, err := s.Grant(root, 2, mem(start, 1), MemRW, CleanZero)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	det, err := s.Detach(grant(0))
	if err != nil {
		t.Fatal(err)
	}
	s.Reclaim(det)
	if freeRecords(s) != 0 || s.CheckMemAccess(1, 0, RightRead) || s.LimboNodes() != 1 {
		t.Fatalf("Reclaim of an unreleased record: %d free, parent access %v, limbo %d",
			freeRecords(s), s.CheckMemAccess(1, 0, RightRead), s.LimboNodes())
	}
	s.Release(det)
	s.Reclaim(det)
	s.Reclaim(det)
	if freeRecords(s) != 1 || !s.CheckMemAccess(1, 0, RightRead) {
		t.Fatalf("after Release and two Reclaims: %d free, want 1; parent access %v", freeRecords(s), s.CheckMemAccess(1, 0, RightRead))
	}
	next, err := s.Detach(grant(2))
	if err != nil {
		t.Fatal(err)
	}
	if next != det || freeRecords(s) != 0 {
		t.Fatalf("Detach did not take the reclaimed record (%d still free)", freeRecords(s))
	}
	if acts := next.Actions(); len(acts) != 1 || acts[0].Resource != mem(2, 1) || !slices.Equal(next.ParentOwners(), []OwnerID{1}) {
		t.Fatalf("reused record holds actions %v, parents %v", acts, next.ParentOwners())
	}
	s.Release(next)
	s.Reclaim(next)
	grant(4)
	owned := s.DetachOwner(2)
	if owned != det || len(owned.Actions()) != 1 || owned.Actions()[0].Resource != mem(4, 1) {
		t.Fatalf("DetachOwner did not take the reclaimed record clean: actions %v", owned.Actions())
	}
	if err := recyclingSound(s, []*Detached{owned}); err != nil {
		t.Fatal(err)
	}

	// A child's subtree is detached before its parent's, so the parent's
	// record skips it; both retire together, reclaimed either way round.
	for _, innerFirst := range []bool{true, false} {
		s := NewSpace()
		root := mustRoot(t, s, 1, mem(0, 8), MemFull)
		parent := mustDerive(t, s.Grant, root, 2, mem(0, 4), MemRW|RightGrant)
		child := mustDerive(t, s.Grant, parent, 3, mem(1, 1), MemRW)
		inner, err := s.Detach(child)
		if err != nil {
			t.Fatal(err)
		}
		outer, err := s.Detach(parent)
		if err != nil {
			t.Fatal(err)
		}
		if len(outer.Actions()) != 1 {
			t.Fatalf("the parent's record took %d nodes, want only the parent", len(outer.Actions()))
		}
		s.Release(inner)
		s.Release(outer)
		if innerFirst {
			s.Reclaim(inner)
			s.Reclaim(outer)
		} else {
			s.Reclaim(outer)
			s.Reclaim(inner)
		}
		if n := freeNodes(s); n != 2 {
			t.Fatalf("stacked records (inner reclaimed first: %v) freed %d nodes, want 2", innerFirst, n)
		}
		if err := recyclingSound(s, nil); err != nil {
			t.Fatalf("stacked records (inner reclaimed first: %v): %v", innerFirst, err)
		}
		if _, ok := s.CheckMemRange(1, mem(0, 8).Mem, RightRead); !ok {
			t.Fatal("the root's owner did not regain the stacked grants")
		}
		a := mustDerive(t, s.Grant, root, 2, mem(0, 2), MemRW|RightShare)
		b := mustDerive(t, s.Share, a, 3, mem(0, 1), MemRW)
		if freeNodes(s) != 0 || a <= child || b <= child {
			t.Fatalf("derives took nodes %d and %d, %d left free", a, b, freeNodes(s))
		}
		if err := modelInvariants(s); err != nil {
			t.Fatal(err)
		}
	}

	// A record whose cleanups failed is never released; its top's parent
	// is revoked and recycled under it, and the node reused.
	s = NewSpace()
	root = mustRoot(t, s, 1, mem(0, 8), MemFull)
	parent := mustDerive(t, s.Grant, root, 2, mem(0, 4), MemRW|RightGrant)
	held, err := s.Detach(mustDerive(t, s.Grant, parent, 3, mem(1, 1), MemRW))
	if err != nil {
		t.Fatal(err)
	}
	pnode := s.nodes[parent]
	if det, err := s.Detach(parent); err != nil {
		t.Fatal(err)
	} else {
		retire(s, det)
	}
	if err := recyclingSound(s, []*Detached{held}); err != nil {
		t.Fatal(err)
	}
	if held.nodes[0].parent != nil {
		t.Fatal("an unreleased record's top still points at its recycled parent")
	}
	reused := mustDerive(t, s.Share, root, 2, mem(4, 2), MemRW|RightShare)
	if s.nodes[reused] != pnode {
		t.Fatal("the recycled parent was not reused")
	}
	mustDerive(t, s.Share, reused, 3, mem(4, 1), MemRW)
	retire(s, held)
	if inf, err := s.Node(reused); err != nil || len(inf.Children) != 1 {
		t.Fatalf("retiring the record under the recycled parent changed the node that reused it: %+v, %v", inf, err)
	}
	if err := recyclingSound(s, nil); err != nil {
		t.Fatal(err)
	}

	// The same stack with the parent's record never released: the
	// child's record retires alone, and the parent stops listing it.
	s = NewSpace()
	root = mustRoot(t, s, 1, mem(0, 8), MemFull)
	parent = mustDerive(t, s.Grant, root, 2, mem(0, 4), MemRW|RightGrant)
	inner, err := s.Detach(mustDerive(t, s.Grant, parent, 3, mem(1, 1), MemRW))
	if err != nil {
		t.Fatal(err)
	}
	if held, err = s.Detach(parent); err != nil {
		t.Fatal(err)
	}
	retire(s, inner)
	if err := recyclingSound(s, []*Detached{held}); err != nil {
		t.Fatal(err)
	}
	if s.CheckMemAccess(1, 0, RightRead) {
		t.Fatal("the root's owner regained a grant whose record was never released")
	}

	// A record Revoke released and never reclaimed: its top forgets the
	// parent it left, and that parent is revoked, recycled and reused
	// while the record's node stays out of reuse.
	s = NewSpace()
	root = mustRoot(t, s, 1, mem(0, 8), MemFull)
	parent = mustDerive(t, s.Grant, root, 2, mem(0, 4), MemRW|RightGrant|RightShare)
	top := mustDerive(t, s.Grant, parent, 3, mem(1, 1), MemRW)
	pnode, tnode := s.nodes[parent], s.nodes[top]
	if _, err := s.Revoke(top); err != nil {
		t.Fatal(err)
	}
	if tnode.parent != nil || len(pnode.children) != 0 || freeNodes(s) != 0 {
		t.Fatalf("Revoke left the top's parent %p (children %d), %d nodes free", tnode.parent, len(pnode.children), freeNodes(s))
	}
	if det, err := s.Detach(parent); err != nil {
		t.Fatal(err)
	} else {
		retire(s, det)
	}
	reused = mustDerive(t, s.Grant, root, 2, mem(0, 4), MemRW|RightShare)
	if s.nodes[reused] != pnode || freeNodes(s) != 0 {
		t.Fatalf("the recycled parent was not reused, or more than it was freed (%d left)", freeNodes(s))
	}
	if again := mustDerive(t, s.Share, reused, 3, mem(1, 1), MemRW); s.nodes[again] == tnode {
		t.Fatal("a node of a record never reclaimed was reused")
	}
	if tnode.state != nodeDetached || tnode.parent != nil || len(pnode.children) != 1 {
		t.Fatalf("reusing the parent reached the revoked top: state %v, parent %p; the parent lists %d", tnode.state, tnode.parent, len(pnode.children))
	}
	if err := recyclingSound(s, nil); err != nil {
		t.Fatal(err)
	}
	if err := modelInvariants(s); err != nil {
		t.Fatal(err)
	}

	// A recycled node is asked for by the ID it had.
	s = NewSpace()
	root = mustRoot(t, s, 1, mem(0, 8), MemFull)
	old := mustDerive(t, s.Share, root, 2, mem(0, 1), MemRW|RightShare)
	onode := s.nodes[old]
	if det, err := s.Detach(old); err != nil {
		t.Fatal(err)
	} else {
		retire(s, det)
	}
	fresh := mustDerive(t, s.Share, root, 3, mem(2, 1), MemRW)
	if s.nodes[fresh] != onode || fresh == old {
		t.Fatalf("the share took node %d, not the recycled one under a new ID", fresh)
	}
	if _, err := s.Node(old); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Node(%d) of a recycled node: %v", old, err)
	}
	if _, _, _, err := s.NodeOwners(old); !errors.Is(err, ErrNotFound) {
		t.Fatalf("NodeOwners(%d) of a recycled node: %v", old, err)
	}
	if _, err := s.Share(old, 2, mem(2, 1), MemRW, CleanNone); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Share from a recycled node's ID: %v", err)
	}
	if _, err := s.Detach(old); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Detach of a recycled node's ID: %v", err)
	}
	if inf, err := s.Node(fresh); err != nil || inf.Owner != 3 || inf.Resource != mem(2, 1) {
		t.Fatalf("the reused node reads %+v, %v", inf, err)
	}
}

// mustDerive is a Share or Grant from parent that must succeed.
func mustDerive(t *testing.T, derive func(NodeID, OwnerID, Resource, Rights, Cleanup) (NodeID, error), parent NodeID, owner OwnerID, res Resource, rights Rights) NodeID {
	t.Helper()
	id, err := derive(parent, owner, res, rights, CleanZero)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// freeNodes returns how many nodes are on s's node free list.
func freeNodes(s *Space) int {
	n := 0
	for f := s.freeNodes; f != nil; f = f.parent {
		n++
	}
	return n
}

// freeRecords returns how many records are on s's free list.
func freeRecords(s *Space) int {
	n := 0
	for det := s.free; det != nil; det = det.next {
		n++
	}
	return n
}
