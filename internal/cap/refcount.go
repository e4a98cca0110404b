package cap

import (
	"fmt"
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
	s.mu.RLock()
	defer s.mu.RUnlock()
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

// CoreRefCount returns the number of distinct owners holding RightRun on
// core.
func (s *Space) CoreRefCount(core phys.CoreID) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	owners := make(map[OwnerID]bool)
	for _, n := range s.nodes {
		if n.res.Kind == ResCore && n.res.Core == core && n.rights.Has(RightRun) && !grantedAway(n) {
			owners[n.owner] = true
		}
	}
	return len(owners)
}

// DeviceRefCount returns the number of distinct owners holding RightUse
// on dev.
func (s *Space) DeviceRefCount(dev phys.DeviceID) int {
	return len(s.deviceHolders(dev, RightUse))
}

// DeviceDMAHolders returns the owners with live (not granted-away) DMA
// rights on dev, sorted. The backends build the device's IOMMU context
// from exactly this set.
func (s *Space) DeviceDMAHolders(dev phys.DeviceID) []OwnerID {
	return s.deviceHolders(dev, RightDMA)
}

// DeviceUsers returns the owners with live RightUse on dev, sorted. The
// monitor routes the device's interrupts to this set.
func (s *Space) DeviceUsers(dev phys.DeviceID) []OwnerID {
	return s.deviceHolders(dev, RightUse)
}

// deviceHolders returns owners holding `want` on dev through a node
// whose device has not been granted away.
func (s *Space) deviceHolders(dev phys.DeviceID, want Rights) []OwnerID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	set := make(map[OwnerID]bool)
	for _, n := range s.nodes {
		if n.res.Kind == ResDevice && n.res.Device == dev && n.rights.Has(want) && !grantedAway(n) {
			set[n.owner] = true
		}
	}
	out := make([]OwnerID, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
