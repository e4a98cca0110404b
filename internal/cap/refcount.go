package cap

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/tyche-sim/tyche/internal/phys"
)

// RegionCount is one entry of the system-wide reference-count view: a
// maximal physical region accessed by exactly the listed set of owners.
// This is Figure 4 of the paper: "domain-to-regions mappings and regions
// reference counts". The count is the number of *distinct domains* with
// effective access — the quantity verifiers use to judge controlled
// sharing ("exclusively owned (ref. count 1)" / "shared among themselves
// (ref. count 2)", §3.1).
type RegionCount struct {
	Region phys.Region
	Count  int
	Owners []OwnerID // sorted
}

func (rc RegionCount) String() string {
	parts := make([]string, len(rc.Owners))
	for i, o := range rc.Owners {
		parts[i] = fmt.Sprintf("d%d", o)
	}
	return fmt.Sprintf("%v refs=%d {%s}", rc.Region, rc.Count, strings.Join(parts, ","))
}

// RefCounts computes the memory reference-count map: maximal regions with
// a constant owner set, in address order. Regions with no owner are
// omitted.
func (s *Space) RefCounts() []RegionCount {
	// Per-owner union of effective coverage (a single owner holding two
	// overlapping capabilities still counts once).
	perOwner := make(map[OwnerID][]phys.Region)
	for _, n := range s.nodes {
		if n.res.Kind == ResMemory {
			perOwner[n.owner] = appendEffective(perOwner[n.owner], n)
		}
	}
	type event struct {
		at    phys.Addr
		owner OwnerID
		open  bool
	}
	var events []event
	for o, regs := range perOwner {
		for _, r := range phys.NormalizeRegions(regs) {
			events = append(events, event{r.Start, o, true}, event{r.End, o, false})
		}
	}
	if len(events) == 0 {
		return nil
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		// Close before open at the same address so adjacency is exact.
		return !events[i].open && events[j].open
	})
	active := make(map[OwnerID]bool)
	var out []RegionCount
	var prev phys.Addr
	flush := func(upto phys.Addr) {
		if len(active) == 0 || upto <= prev {
			return
		}
		owners := make([]OwnerID, 0, len(active))
		for o := range active {
			owners = append(owners, o)
		}
		sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
		seg := RegionCount{Region: phys.Region{Start: prev, End: upto}, Count: len(owners), Owners: owners}
		if n := len(out); n > 0 && out[n-1].Region.End == seg.Region.Start && sameOwners(out[n-1].Owners, owners) {
			out[n-1].Region.End = seg.Region.End
			return
		}
		out = append(out, seg)
	}
	for _, e := range events {
		flush(e.at)
		prev = e.at
		if e.open {
			active[e.owner] = true
		} else {
			delete(active, e.owner)
		}
	}
	return out
}

func sameOwners(a, b []OwnerID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The scoped sweeps below answer what a migration hop asks about one
// tenant — how many owners share a grant at most (1: it is the tenant's
// alone), what its death would leave unowned — from the effective
// pieces that touch the region, in stack buffers: no map, no event
// sort, no owner slices. Each answers what RefCounts implies for the
// region, and costs what the machine holds there.

// ownerPiece is one effective memory piece of one owner, clipped to the
// region a scoped sweep asks about.
type ownerPiece struct {
	owner OwnerID
	phys.Region
}

// appendPieces appends every owner's effective memory pieces that
// overlap r, clipped to r. One owner's pieces are contiguous in the
// result, so a sweep counts distinct owners without a set; the owners
// come in map order, which none of the sweeps depends on.
func (s *Space) appendPieces(dst []ownerPiece, r phys.Region) []ownerPiece {
	var buf [8]phys.Region // a node's pieces: one unless grants split it
	for o, nodes := range s.owned {
		for _, n := range nodes {
			if n.res.Kind != ResMemory || !n.res.Mem.Overlaps(r) {
				continue
			}
			for _, p := range appendEffective(buf[:0], n) {
				if p.Overlaps(r) {
					dst = append(dst, ownerPiece{o, phys.Region{Start: max(p.Start, r.Start), End: min(p.End, r.End)}})
				}
			}
		}
	}
	return dst
}

// MaxOwners returns the largest number of distinct owners with effective
// access to any one byte of r — the highest Count of the RefCounts
// segments overlapping r, 0 if none does. The count only rises where a
// piece starts, so only piece starts are probed.
func (s *Space) MaxOwners(r phys.Region) int {
	var buf [16]ownerPiece
	pieces := s.appendPieces(buf[:0], r)
	best := 0
	for _, at := range pieces {
		n, counted := 0, false
		for i, p := range pieces {
			if i > 0 && p.owner != pieces[i-1].owner {
				counted = false
			}
			if !counted && p.Contains(at.Start) {
				n, counted = n+1, true
			}
		}
		best = max(best, n)
	}
	return best
}

// AppendExclusive appends the memory only owner has effective access to,
// normalized: its effective memory with every other owner's effective
// pieces carved out — the RefCounts segments whose owners are {owner},
// merged.
func (s *Space) AppendExclusive(dst []phys.Region, owner OwnerID) []phys.Region {
	base := len(dst)
	for _, n := range s.owned[owner] {
		dst = appendEffective(dst, n)
	}
	dst = dst[:base+len(phys.NormalizeInPlace(dst[base:]))]
	if len(dst) == base {
		return dst
	}
	var buf [16]ownerPiece
	for _, p := range s.appendPieces(buf[:0], phys.Region{Start: dst[base].Start, End: dst[len(dst)-1].End}) {
		if p.owner != owner {
			dst = carve(dst, base, p.Region)
		}
	}
	return dst
}

// CoreRefCount returns the number of distinct owners holding RightRun on
// core.
func (s *Space) CoreRefCount(core phys.CoreID) int {
	return s.holderCount(CoreResource(core), RightRun)
}

// DeviceRefCount returns the number of distinct owners holding RightUse
// on dev.
func (s *Space) DeviceRefCount(dev phys.DeviceID) int {
	return s.holderCount(DeviceResource(dev), RightUse)
}

// holderCount counts the owners holding want on the core or device res:
// each owner's list is asked once, so the count needs no set.
func (s *Space) holderCount(res Resource, want Rights) int {
	count := 0
	for _, nodes := range s.owned {
		if holds(nodes, res, want) {
			count++
		}
	}
	return count
}

// AppendDeviceDMAHolders appends to dst the owners with live (not
// granted-away) DMA rights on dev, sorted, and returns the extended
// slice. The backends build the device's IOMMU context from exactly
// this set, into a buffer of their own.
func (s *Space) AppendDeviceDMAHolders(dst []OwnerID, dev phys.DeviceID) []OwnerID {
	return s.appendDeviceHolders(dst, dev, RightDMA)
}

// AppendDeviceUsers appends to dst the owners with live RightUse on
// dev, sorted, and returns the extended slice. The monitor routes the
// device's interrupts to this set.
func (s *Space) AppendDeviceUsers(dst []OwnerID, dev phys.DeviceID) []OwnerID {
	return s.appendDeviceHolders(dst, dev, RightUse)
}

// appendDeviceHolders appends to dst the owners holding `want` on dev
// through a node whose device has not been granted away, sorted: each
// owner's list is asked once, so no set is needed, only the sort of
// what it appended.
func (s *Space) appendDeviceHolders(dst []OwnerID, dev phys.DeviceID, want Rights) []OwnerID {
	base := len(dst)
	for o, nodes := range s.owned {
		if holds(nodes, DeviceResource(dev), want) {
			dst = append(dst, o)
		}
	}
	slices.Sort(dst[base:])
	return dst
}

// holds reports whether one of nodes is a live capability on the core or
// device res with rights want: not granted away.
func holds(nodes []*node, res Resource, want Rights) bool {
	for _, n := range nodes {
		if res.ContainsResource(n.res) && n.rights.Has(want) && !grantedAway(n) {
			return true
		}
	}
	return false
}
