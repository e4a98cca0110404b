package cap

import (
	"math/rand"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
)

// propHarness drives a random but valid sequence of capability
// operations and checks the model's global invariants after every step.
// This is the executable counterpart of the paper's "meant to be
// formally verified" capability engine (§4.1): the invariants are the
// properties a verification effort would prove.
type propHarness struct {
	t   *testing.T
	s   *Space
	rng *rand.Rand
	ids []NodeID
}

const propPages = 64 // property world: 64 pages of physical memory

func (h *propHarness) randomOp() {
	switch h.rng.Intn(10) {
	case 0: // new root (rare: boot-time only in reality)
		start := uint64(h.rng.Intn(propPages / 2))
		pages := uint64(h.rng.Intn(propPages/2) + 1)
		id, err := h.s.CreateRoot(OwnerID(h.rng.Intn(3)+1), mem(start, pages), MemFull, CleanNone)
		if err == nil {
			h.ids = append(h.ids, id)
		}
	case 1, 2, 3, 4: // share
		h.derive(false)
	case 5, 6: // grant
		h.derive(true)
	case 7, 8: // revoke a random node
		if len(h.ids) == 0 {
			return
		}
		id := h.ids[h.rng.Intn(len(h.ids))]
		if _, err := h.s.Revoke(id); err != nil {
			// Node may already be gone via a cascade; that's fine.
			h.compactIDs()
		} else {
			h.compactIDs()
		}
	case 9: // revoke a random owner entirely
		h.s.RevokeOwner(OwnerID(h.rng.Intn(6) + 1))
		h.compactIDs()
	}
}

func (h *propHarness) derive(grant bool) {
	if len(h.ids) == 0 {
		return
	}
	id := h.ids[h.rng.Intn(len(h.ids))]
	info, err := h.s.Node(id)
	if err != nil {
		return
	}
	sub := info.Resource // a core or device is delegated whole
	rights := info.Rights
	if info.Resource.Kind == ResMemory {
		r := info.Resource.Mem
		pages := r.Pages()
		if pages == 0 {
			return
		}
		off := uint64(h.rng.Int63n(int64(pages)))
		n := uint64(h.rng.Int63n(int64(pages-off))) + 1
		sub = MemResource(phys.MakeRegion(r.Start+phys.Addr(off*pg), n*pg))
	}
	if h.rng.Intn(2) == 0 {
		rights &^= RightWrite | RightDMA
	}
	newOwner := OwnerID(h.rng.Intn(6) + 1)
	var nid NodeID
	if grant {
		nid, err = h.s.Grant(id, newOwner, sub, rights, CleanZero)
	} else {
		nid, err = h.s.Share(id, newOwner, sub, rights, CleanNone)
	}
	if err == nil {
		h.ids = append(h.ids, nid)
	}
}

func (h *propHarness) compactIDs() {
	live := h.ids[:0]
	for _, id := range h.ids {
		if _, err := h.s.Node(id); err == nil {
			live = append(live, id)
		}
	}
	h.ids = live
}

// checkInvariants validates the global model invariants.
func (h *propHarness) checkInvariants() {
	t, s := h.t, h.s

	// I1: reference count at every page equals the number of distinct
	// owners with effective access (refcount is an exact sharing audit).
	for pgN := 0; pgN < propPages; pgN += 3 {
		a := phys.Addr(pgN * pg)
		byCount := s.RefCountAt(a)
		brute := 0
		for _, o := range s.Owners() {
			if s.CheckMemAccess(o, a, RightsNone) {
				brute++
			}
		}
		if byCount != brute {
			t.Fatalf("I1 violated at %v: refcount=%d brute=%d", a, byCount, brute)
		}
	}

	// I2: RefCounts segments are disjoint, ordered, and consistent with
	// RefCountAt.
	var prevEnd phys.Addr
	for _, rc := range s.RefCounts() {
		if rc.Region.Start < prevEnd {
			t.Fatalf("I2 violated: overlapping segments in %v", s.RefCounts())
		}
		prevEnd = rc.Region.End
		if got := s.RefCountAt(rc.Region.Start); got != rc.Count {
			t.Fatalf("I2 violated: segment %v but RefCountAt=%d", rc, got)
		}
		if rc.Count != len(rc.Owners) {
			t.Fatalf("I2 violated: count %d != owners %v", rc.Count, rc.Owners)
		}
	}

	// I3: rights only attenuate along lineage, and every child's
	// resource is contained in its parent's.
	for _, o := range s.Owners() {
		for _, inf := range s.OwnerNodes(o) {
			if inf.Parent == 0 {
				continue
			}
			p, err := s.Node(inf.Parent)
			if err != nil {
				t.Fatalf("I3 violated: dangling parent for %d", inf.ID)
			}
			if !inf.Rights.Subset(p.Rights) {
				t.Fatalf("I3 violated: child %v ⊄ parent %v", inf.Rights, p.Rights)
			}
			if !p.Resource.ContainsResource(inf.Resource) {
				t.Fatalf("I3 violated: %v not in %v", inf.Resource, p.Resource)
			}
		}
	}

	// I4: effective regions never include granted-away memory.
	for _, o := range s.Owners() {
		for _, inf := range s.OwnerNodes(o) {
			if inf.Resource.Kind != ResMemory {
				continue
			}
			eff, err := s.EffectiveRegions(inf.ID)
			if err != nil {
				t.Fatal(err)
			}
			for _, cid := range inf.Children {
				c, err := s.Node(cid)
				if err != nil || c.Kind != KindGranted {
					continue
				}
				for _, r := range eff {
					if r.Overlaps(c.Resource.Mem) {
						t.Fatalf("I4 violated: effective %v overlaps grant %v", r, c.Resource.Mem)
					}
				}
			}
		}
	}

	// I5: the per-owner lists agree with the node index, and so does
	// every query answered from them.
	if err := ownedMatchesIndex(s); err != nil {
		t.Fatalf("I5 violated: %v", err)
	}
	if err := ownerQueriesMatchSweep(s); err != nil {
		t.Fatalf("I5 violated: %v", err)
	}
	// I6: the in-place carve and the checks built on it agree with
	// Subtract + Normalize.
	if err := carveMatchesReference(s); err != nil {
		t.Fatalf("I6 violated: %v", err)
	}
}

func TestCapabilityInvariantsRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		h := &propHarness{t: t, s: NewSpace(), rng: rand.New(rand.NewSource(seed))}
		// Boot: initial domain owns everything, as on real Tyche.
		root, err := h.s.CreateRoot(1, mem(0, propPages), MemFull, CleanNone)
		if err != nil {
			t.Fatal(err)
		}
		h.ids = append(h.ids, root)
		// Cores and devices too, so the per-owner core and device queries
		// are checked on more than empty answers.
		for _, res := range []Resource{CoreResource(0), CoreResource(1), DeviceResource(0), DeviceResource(1)} {
			id, err := h.s.CreateRoot(1, res, res.ValidRights(), CleanNone)
			if err != nil {
				t.Fatal(err)
			}
			h.ids = append(h.ids, id)
		}
		for step := 0; step < 300; step++ {
			h.randomOp()
			if step%10 == 0 {
				h.checkInvariants()
			}
		}
		h.checkInvariants()
	}
}

// TestRevocationAlwaysTerminatesAndEmpties: random deep/cyclic sharing
// graphs, then revoking the boot capability must empty the space
// entirely (cascading revocation reaches everything derived).
func TestRevocationCascadeReachesEverything(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace()
		root, err := s.CreateRoot(1, mem(0, propPages), MemFull, CleanNone)
		if err != nil {
			t.Fatal(err)
		}
		ids := []NodeID{root}
		for i := 0; i < 120; i++ {
			src := ids[rng.Intn(len(ids))]
			info, err := s.Node(src)
			if err != nil {
				continue
			}
			r := info.Resource.Mem
			if r.Pages() == 0 {
				continue
			}
			off := uint64(rng.Int63n(int64(r.Pages())))
			n := uint64(rng.Int63n(int64(r.Pages()-off))) + 1
			sub := MemResource(phys.MakeRegion(r.Start+phys.Addr(off*pg), n*pg))
			// Deliberately create circular owner patterns: share back
			// and forth between owners 1..4.
			if id, err := s.Share(src, OwnerID(rng.Intn(4)+1), sub, info.Rights, CleanZero); err == nil {
				ids = append(ids, id)
			}
		}
		acts, err := s.Revoke(root)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumNodes() != 0 {
			t.Fatalf("seed %d: %d nodes survive root revocation", seed, s.NumNodes())
		}
		if len(acts) == 0 {
			t.Fatal("no cleanup actions emitted")
		}
		// Cleanup order: every node appears after all of its children.
		seen := make(map[NodeID]bool)
		for _, a := range acts {
			seen[a.Node] = true
			_ = a
		}
		if !seen[root] || acts[len(acts)-1].Node != root {
			t.Fatal("root must be cleaned up last")
		}
		if s.RefCountAt(0) != 0 {
			t.Fatal("refcounts must drop to zero")
		}
	}
}

// capState is the observable capability state the revoke-under-fault
// properties compare: the exact refcount segmentation plus a
// brute-force access map for every owner at sampled pages.
type capState struct {
	segs   []RegionCount
	nodes  int
	access map[OwnerID][propPages]bool
}

func captureState(s *Space, owners []OwnerID) capState {
	st := capState{segs: s.RefCounts(), nodes: s.NumNodes(), access: make(map[OwnerID][propPages]bool)}
	for _, o := range owners {
		var m [propPages]bool
		for pgN := 0; pgN < propPages; pgN++ {
			m[pgN] = s.CheckMemAccess(o, phys.Addr(pgN*pg), RightsNone)
		}
		st.access[o] = m
	}
	return st
}

func diffStates(t *testing.T, label string, before, after capState) {
	t.Helper()
	if before.nodes != after.nodes {
		t.Fatalf("%s: node count %d -> %d (leak or double-free)", label, before.nodes, after.nodes)
	}
	if len(before.segs) != len(after.segs) {
		t.Fatalf("%s: refcount map changed shape:\n  %v\n  %v", label, before.segs, after.segs)
	}
	for i := range before.segs {
		b, a := before.segs[i], after.segs[i]
		if b.Region != a.Region || b.Count != a.Count {
			t.Fatalf("%s: segment %d changed: %v -> %v", label, i, b, a)
		}
	}
	for o, bm := range before.access {
		am := after.access[o]
		for pgN := range bm {
			if bm[pgN] != am[pgN] {
				t.Fatalf("%s: owner %d access at page %d changed %v -> %v",
					label, o, pgN, bm[pgN], am[pgN])
			}
		}
	}
}

// TestRevokeOwnerMidGrantNeutrality is the containment path's core
// property (Monitor.destroyDomain calls RevokeOwner on the victim):
// killing an owner at an *arbitrary point* of an in-flight
// grant-and-reshare sequence restores the surviving owners' view
// exactly — no leaked refcount from a half-built chain, no double-free
// from a cascade meeting a direct revocation, and no residual access
// for the victim or anyone who derived from it.
func TestRevokeOwnerMidGrantNeutrality(t *testing.T) {
	const victim, accomplice = OwnerID(9), OwnerID(10)
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSpace()
		root, err := s.CreateRoot(1, mem(0, propPages), MemFull, CleanNone)
		if err != nil {
			t.Fatal(err)
		}
		// Pre-existing survivor topology among owners 1..3.
		base := []NodeID{root}
		for i := 0; i < rng.Intn(8); i++ {
			src := base[rng.Intn(len(base))]
			info, err := s.Node(src)
			if err != nil || info.Resource.Mem.Pages() == 0 {
				continue
			}
			r := info.Resource.Mem
			off := uint64(rng.Int63n(int64(r.Pages())))
			n := uint64(rng.Int63n(int64(r.Pages()-off))) + 1
			sub := MemResource(phys.MakeRegion(r.Start+phys.Addr(off*pg), n*pg))
			if id, err := s.Share(src, OwnerID(rng.Intn(3)+1), sub, info.Rights, CleanNone); err == nil {
				base = append(base, id)
			}
		}
		survivors := []OwnerID{1, 2, 3, victim, accomplice}
		before := captureState(s, survivors)

		// The victim's in-flight activity: receive shares and grants,
		// re-share onward to an accomplice, grant back to survivors. The
		// random op count is the "mid-grant" part — the kill lands after
		// an arbitrary prefix of the chain.
		var vids []NodeID
		steps := rng.Intn(14) + 1
		for i := 0; i < steps; i++ {
			pickSub := func(id NodeID) (Resource, Rights, bool) {
				info, err := s.Node(id)
				if err != nil || info.Resource.Kind != ResMemory || info.Resource.Mem.Pages() == 0 {
					return Resource{}, 0, false
				}
				r := info.Resource.Mem
				off := uint64(rng.Int63n(int64(r.Pages())))
				n := uint64(rng.Int63n(int64(r.Pages()-off))) + 1
				return MemResource(phys.MakeRegion(r.Start+phys.Addr(off*pg), n*pg)), info.Rights, true
			}
			switch {
			case len(vids) == 0 || rng.Intn(3) == 0: // inbound share/grant
				src := base[rng.Intn(len(base))]
				sub, rights, ok := pickSub(src)
				if !ok {
					continue
				}
				var id NodeID
				if rng.Intn(2) == 0 {
					id, err = s.Share(src, victim, sub, rights, CleanZero)
				} else {
					id, err = s.Grant(src, victim, sub, rights, CleanObfuscate)
				}
				if err == nil {
					vids = append(vids, id)
				}
			default: // victim re-derives onward
				src := vids[rng.Intn(len(vids))]
				sub, rights, ok := pickSub(src)
				if !ok {
					continue
				}
				dst := accomplice
				if rng.Intn(3) == 0 {
					dst = OwnerID(rng.Intn(3) + 1)
				}
				if id, err := s.Share(src, dst, sub, rights, CleanFlushTLB); err == nil {
					vids = append(vids, id)
				}
			}
		}

		// The fault: the monitor kills the victim mid-chain.
		s.RevokeOwner(victim)
		// Anything the victim re-shared dies with its lineage; the
		// accomplice's derived-only access must be gone too.
		after := captureState(s, survivors)
		diffStates(t, "kill mid-grant", before, after)
		for pgN := 0; pgN < propPages; pgN++ {
			if s.CheckMemAccess(victim, phys.Addr(pgN*pg), RightsNone) {
				t.Fatalf("seed %d: victim retains access at page %d after kill", seed, pgN)
			}
		}
		// Double-kill is a no-op: no action emitted, nothing changes.
		if acts := s.RevokeOwner(victim); len(acts) != 0 {
			t.Fatalf("seed %d: second RevokeOwner emitted %d cleanups", seed, len(acts))
		}
		diffStates(t, "double kill", after, captureState(s, survivors))
		// Full refcount audit after the cascade.
		for _, rc := range s.RefCounts() {
			if rc.Count != len(rc.Owners) {
				t.Fatalf("seed %d: refcount %d != owners %v", seed, rc.Count, rc.Owners)
			}
		}
	}
}

// Property: Grant then Revoke is access-neutral for every owner.
func TestGrantRevokeNeutrality(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		s := NewSpace()
		rootPages := uint64(rng.Intn(32) + 8)
		root, err := s.CreateRoot(1, mem(0, rootPages), MemFull, CleanNone)
		if err != nil {
			t.Fatal(err)
		}
		// Random pre-existing shares.
		for i := 0; i < rng.Intn(5); i++ {
			off := uint64(rng.Int63n(int64(rootPages)))
			n := uint64(rng.Int63n(int64(rootPages-off))) + 1
			s.Share(root, OwnerID(rng.Intn(3)+2), MemResource(phys.MakeRegion(phys.Addr(off*pg), n*pg)), MemRW, CleanNone)
		}
		snapshot := s.RefCounts()
		off := uint64(rng.Int63n(int64(rootPages)))
		n := uint64(rng.Int63n(int64(rootPages-off))) + 1
		g, err := s.Grant(root, 9, MemResource(phys.MakeRegion(phys.Addr(off*pg), n*pg)), MemRWX, CleanObfuscate)
		if err != nil {
			continue // grant may legitimately fail (e.g. overlap rules)
		}
		if _, err := s.Revoke(g); err != nil {
			t.Fatal(err)
		}
		after := s.RefCounts()
		if len(snapshot) != len(after) {
			t.Fatalf("trial %d: refcount map changed: %v -> %v", trial, snapshot, after)
		}
		for i := range snapshot {
			if snapshot[i].Region != after[i].Region || snapshot[i].Count != after[i].Count {
				t.Fatalf("trial %d: segment changed: %v -> %v", trial, snapshot[i], after[i])
			}
		}
	}
}
