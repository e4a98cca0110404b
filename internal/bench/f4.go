package bench

import (
	"fmt"
	"strings"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "F4",
		Title: "Physical memory view: domain-to-region mappings and reference counts",
		Paper: "Figure 4",
		Run:   runF4,
	})
}

// runF4 rebuilds the Figure 2/3 deployment and dumps the monitor's
// system-wide reference-count map — Figure 4's "view of a subset of the
// physical memory ... with domain-to-regions mappings and regions
// reference counts". The checks pin the figure's pattern: confidential
// regions at refcount 1, the explicitly shared buffers at exactly 2.
func runF4(cfg Config) (*Result, error) {
	res := &Result{
		ID: "F4", Title: "Memory reference-count view",
		Columns: []string{"region", "KiB", "refs", "domains", "role"},
	}
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return nil, err
	}
	d, err := buildSaaS(w)
	if err != nil {
		return nil, err
	}

	// Ordered: a refcount run that merges adjacent segments (the crypto
	// engine's text and key page) takes the first role it overlaps.
	type role struct {
		region phys.Region
		name   string
	}
	var roles []role
	if r, ok := d.crypto.SegmentRegion(".text"); ok {
		roles = append(roles, role{r, "crypto engine text (confidential)"})
	}
	roles = append(roles,
		role{d.keySeg, "crypto engine key page (confidential)"},
		role{d.chanSeg, "app<->crypto shared buffer"},
		role{d.gpuBuf, "app<->gpu shared buffer"},
		role{d.fbSeg, "gpu framebuffer (confidential)"},
		role{d.mailbox.Region(), "dom0<->crypto mailbox"})

	roleOf := func(r phys.Region) string {
		for _, ro := range roles {
			if ro.region.Overlaps(r) {
				return ro.name
			}
		}
		return ""
	}

	counts := w.mon.RefCounts()
	for _, rc := range counts {
		owners := make([]string, len(rc.Owners))
		for i, o := range rc.Owners {
			owners[i] = fmt.Sprintf("d%d", o)
		}
		res.row(rc.Region.String(), fmtU(rc.Region.Size()/1024), fmtU(uint64(rc.Count)),
			strings.Join(owners, ","), roleOf(rc.Region))
	}

	// Figure-4 pattern checks.
	expect2 := []phys.Region{d.chanSeg, d.gpuBuf, d.mailbox.Region()}
	for i, r := range expect2 {
		got := w.mon.RefCounts()
		ok := regionCountIs(got, r, 2)
		res.check(fmt.Sprintf("shared-region-%d-refs-2", i), ok, "%v must have refcount exactly 2", r)
	}
	expect1 := []phys.Region{d.keySeg, d.fbSeg}
	for i, r := range expect1 {
		ok := regionCountIs(counts, r, 1)
		res.check(fmt.Sprintf("exclusive-region-%d-refs-1", i), ok, "%v must have refcount exactly 1", r)
	}
	// No region anywhere exceeds 2 in this deployment, and every byte of
	// RAM below the monitor region is owned by someone (no limbo).
	max := 0
	var covered uint64
	for _, rc := range counts {
		if rc.Count > max {
			max = rc.Count
		}
		covered += rc.Region.Size()
	}
	res.check("max-refcount-2", max == 2, "max refcount = %d", max)
	// Every byte of RAM is accounted for: the domains below the monitor
	// region, and the monitor's own reserved region (owner d0).
	total := w.mach.Mem.Size()
	res.check("full-coverage", covered == total, "covered %d of %d bytes", covered, total)
	res.note("backend=%s; refcounts are computed live from the capability space", w.mon.Backend())
	return res, nil
}

func regionCountIs(counts []cap.RegionCount, r phys.Region, want int) bool {
	for _, rc := range counts {
		if rc.Region.Overlaps(r) && rc.Count != want {
			return false
		}
	}
	return true
}
