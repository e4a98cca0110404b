package bench

import (
	"fmt"
	"math"
	"strings"

	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "F4",
		Title: "Physical memory view: domain-to-region mappings and reference counts",
		Paper: "Figure 4",
		Gates: []Gate{
			{"shared-region-{shared}-refs-2", "shared_region_{shared}_refs_min", eq(2), "Figure 4: an explicitly shared buffer has reference count 2"},
			{"shared-region-{shared}-refs-2", "shared_region_{shared}_refs_max", eq(2), "over every run it spans"},
			{"exclusive-region-{exclusive}-refs-1", "exclusive_region_{exclusive}_refs_min", eq(1), "Figure 4: a confidential region has reference count 1"},
			{"exclusive-region-{exclusive}-refs-1", "exclusive_region_{exclusive}_refs_max", eq(1), "over every run it spans"},
			{"max-refcount-2", "max_refcount", eq(2), "no region of this deployment is shared more widely"},
			{"full-coverage", "covered_bytes / memory_bytes", eq(1), "every byte of RAM has an owner"},
		},
	}, runF4)
}

// runF4 rebuilds the Figure 2/3 deployment and dumps the monitor's
// system-wide reference-count map — Figure 4's "view of a subset of the
// physical memory ... with domain-to-regions mappings and regions
// reference counts". The checks pin the figure's pattern: confidential
// regions at refcount 1, the explicitly shared buffers at exactly 2.
func runF4(cfg Config, res *Result) error {
	res.Columns = []string{"region", "KiB", "refs", "domains", "role"}
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return err
	}
	d, err := buildSaaS(w)
	if err != nil {
		return err
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

	// Figure-4 pattern: the reference counts of the runs each named
	// region spans.
	for sw, regions := range map[string][]phys.Region{
		"shared":    {d.chanSeg, d.gpuBuf, d.mailbox.Region()},
		"exclusive": {d.keySeg, d.fbSeg},
	} {
		for i, r := range regions {
			tag := fmt.Sprintf("%d", i)
			res.sweep(sw, tag)
			lo, hi := math.MaxInt, 0
			for _, rc := range counts {
				if rc.Region.Overlaps(r) {
					lo, hi = min(lo, rc.Count), max(hi, rc.Count)
				}
			}
			res.metric(sw+"_region_"+tag+"_refs_min", float64(lo))
			res.metric(sw+"_region_"+tag+"_refs_max", float64(hi))
		}
	}
	// No region anywhere exceeds 2 in this deployment, and every byte of
	// RAM is accounted for: the domains below the monitor region, and the
	// monitor's own reserved region (owner d0).
	maxRefs := 0
	var covered uint64
	for _, rc := range counts {
		maxRefs = max(maxRefs, rc.Count)
		covered += rc.Region.Size()
	}
	res.metric("max_refcount", float64(maxRefs))
	res.metric("covered_bytes", float64(covered))
	res.metric("memory_bytes", float64(w.mach.Mem.Size()))
	res.note("backend=%s; refcounts are computed live from the capability space", w.mon.Backend())
	return nil
}
