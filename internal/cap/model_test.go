package cap

import (
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
// (overlap, re-delegation, circular sharing, revoking mid-lineage).

type modelOp struct {
	name  string
	apply func(s *Space, nodes *[]NodeID) error
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
		{"share0->2", func(s *Space, nodes *[]NodeID) error {
			n, ok := pick(*nodes, 0)
			if !ok {
				return nil
			}
			id, err := s.Share(n, 2, region(0, 2), MemRW|RightShare|RightGrant, CleanZero)
			if err == nil {
				*nodes = append(*nodes, id)
			}
			return nil
		}},
		{"grant1->3", func(s *Space, nodes *[]NodeID) error {
			n, ok := pick(*nodes, 0)
			if !ok {
				return nil
			}
			id, err := s.Grant(n, 3, region(1, 2), MemRW|RightShare, CleanObfuscate)
			if err == nil {
				*nodes = append(*nodes, id)
			}
			return nil
		}},
		{"share-last->1", func(s *Space, nodes *[]NodeID) error {
			n, ok := pick(*nodes, len(*nodes)-1)
			if !ok {
				return nil
			}
			id, err := s.Share(n, 1, region(0, 1), MemRW, CleanNone)
			if err == nil {
				*nodes = append(*nodes, id)
			}
			return nil
		}},
		{"revoke-mid", func(s *Space, nodes *[]NodeID) error {
			n, ok := pick(*nodes, 1)
			if !ok {
				return nil
			}
			_, _ = s.Revoke(n)
			return nil
		}},
		{"revoke-owner-2", func(s *Space, nodes *[]NodeID) error {
			s.Release(s.DetachOwner(2))
			return nil
		}},
		{"seal-3", func(s *Space, nodes *[]NodeID) error {
			s.Seal(3)
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
		nodes := []NodeID{root}
		for step, opIdx := range seq {
			if err := ops[opIdx].apply(s, &nodes); err != nil {
				t.Fatalf("seq %v step %d (%s): %v", seq, step, ops[opIdx].name, err)
			}
			// Drop dead node handles.
			live := nodes[:0]
			for _, id := range nodes {
				if _, err := s.Node(id); err == nil {
					live = append(live, id)
				}
			}
			nodes = live
			if err := modelInvariants(s); err != nil {
				t.Fatalf("seq %v after step %d (%s): %v", seq, step, ops[opIdx].name, err)
			}
		}
	}
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
// insertion (ascending ID) order, with no empty list.
func ownedMatchesIndex(s *Space) error {
	listed := 0
	for o, l := range s.owned {
		if len(l) == 0 {
			return fmt.Errorf("owner %d: empty list", o)
		}
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
// Reclaim does not list the record twice.
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
}

// freeRecords returns how many records are on s's free list.
func freeRecords(s *Space) int {
	n := 0
	for det := s.free; det != nil; det = det.next {
		n++
	}
	return n
}
