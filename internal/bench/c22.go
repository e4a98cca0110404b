package bench

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "C22",
		Title: "Reclamation rounds: multi-ring drains, shared grace periods, kill storm",
		Paper: "§3 every operation is mediated: a reclamation round retires many tenants' revocations for one grace period and one shootdown round",
		Run:   runC22,
	})
}

// runC22 exercises the drain round (core/drain.go) in two phases:
//
//	mixed — a 6-tenant ring fleet running a revocation-heavy descriptor
//	        mix (flush-cleanup revokes + attests) with a ForceKillAll
//	        storm at the end, with the tracer and checker attached.
//	        Gates: every descriptor drained, a clean audit with exact
//	        count reconciliation, and exactly one coalesced shootdown
//	        round per drain round.
//	storm — a 12-victim ForceKillAll over ring-owning tenants with
//	        exclusive slabs. Gate: the shared grace period combiner
//	        covers the storm with at most kills/1.5 grace periods
//	        (measured from EpochStats).
func runC22(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C22", Title: "Reclamation rounds (mixed drain / kill storm)",
		Columns: []string{"phase", "cycles", "ops", "graces"},
	}
	cfg.Trace = true

	// Mixed revocation workload.
	r, err := runC22Mixed(cfg)
	if err != nil {
		return nil, fmt.Errorf("c22 mixed: %w", err)
	}
	r.w.traceClean(res, "mixed")
	res.metric("mixed_cycles", float64(r.cycles))
	res.metric("mixed_revocations", float64(r.revocations))
	wantOps := r.drainRounds * c22MixedTenants * c22MixedPerRound
	res.check("mixed-complete", r.ringOps == wantOps,
		"%d drain rounds retired %d descriptors (want %d tenants x %d each = %d)",
		r.drainRounds, r.ringOps, c22MixedTenants, c22MixedPerRound, wantOps)
	res.check("mixed-coalesces", r.shootdownRounds == r.drainRounds,
		"%d drain rounds retired %d shootdown rounds (cross-ring coalescing: exactly one each)",
		r.drainRounds, r.shootdownRounds)
	res.row("mixed", fmtU(r.cycles), fmtU(r.ringOps), "-")

	// Kill storm — shared grace periods.
	s, err := runC22Storm(cfg)
	if err != nil {
		return nil, fmt.Errorf("c22 storm: %w", err)
	}
	res.row("storm", fmtU(s.cycles), fmtU(s.kills), fmtU(s.graces))
	res.metric("storm_graces", float64(s.graces))
	res.metric("storm_combined", float64(s.combined))
	res.check("storm-kills", s.kills == c22StormVictims, "storm killed %d/%d victims", s.kills, c22StormVictims)
	res.check("storm-graces", s.graces <= c22StormVictims*2/3,
		"storm of %d kills ran %d grace periods (gate: <= kills/1.5 = %d; combiner folded %d)",
		c22StormVictims, s.graces, c22StormVictims*2/3, s.combined)
	s.w.traceClean(res, "storm")
	return res, nil
}

// c22Fleet is a set of ring-owning tenants built on a bench world.
type c22Fleet struct {
	w     *world
	doms  []core.DomainID
	bases []phys.Addr
	tails []uint64
}

const (
	c22Entries       = 32
	c22MixedTenants  = 6
	c22MixedPerRound = 4 // descriptors each tenant enqueues per drain round
	c22StormVictims  = 12
)

// c22PageRegion builds a page-granular memory resource.
func c22PageRegion(page, pages uint64) cap.Resource {
	return cap.MemResource(phys.MakeRegion(phys.Addr(page*phys.PageSize), pages*phys.PageSize))
}

// newC22Fleet boots a world with `tenants` ring-owning domains. Each
// tenant owns one ring page (granted exclusively) at page ringBase+2i.
func newC22Fleet(cfg Config, tenants int) (*c22Fleet, error) {
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return nil, err
	}
	f := &c22Fleet{w: w, tails: make([]uint64, tenants)}
	const ringBase = 4096
	for i := 0; i < tenants; i++ {
		dom, err := w.mon.CreateDomain(core.InitialDomain, fmt.Sprintf("tenant%d", i))
		if err != nil {
			return nil, err
		}
		page := uint64(ringBase + 2*i)
		if _, err := w.mon.Grant(core.InitialDomain, w.cl.HeapNode(), dom, c22PageRegion(page, 1), cap.MemRW, cap.CleanNone); err != nil {
			return nil, err
		}
		base := phys.Addr(page * phys.PageSize)
		if err := w.mon.RingSetup(dom, base, c22Entries); err != nil {
			return nil, err
		}
		f.doms = append(f.doms, dom)
		f.bases = append(f.bases, base)
	}
	return f, nil
}

// enqueue writes one descriptor with raw guest-level stores and
// advances the fleet's shadow tail.
func (f *c22Fleet) enqueue(i int, desc ...uint64) error {
	mem := f.w.mach.Mem
	off := f.bases[i] + phys.Addr(core.RingSQOff(c22Entries, f.tails[i]))
	for w := 0; w < 6; w++ {
		var v uint64
		if w < len(desc) {
			v = desc[w]
		}
		if err := mem.Write64(off+phys.Addr(8*w), v); err != nil {
			return err
		}
	}
	f.tails[i]++
	return mem.Write64(f.bases[i]+core.RingOffSQTail, f.tails[i])
}

// c22MixedRun is one traced revocation-heavy run.
type c22MixedRun struct {
	w               *world
	cycles          uint64
	ringOps         uint64
	revocations     uint64
	drainRounds     uint64 // DrainRings calls that retired revocations
	shootdownRounds uint64
}

// runC22Mixed drives flush-cleanup revokes and attests through every
// ring, then storms the last two tenants.
func runC22Mixed(cfg Config) (*c22MixedRun, error) {
	f, err := newC22Fleet(cfg, c22MixedTenants)
	if err != nil {
		return nil, err
	}
	rounds := 4
	if cfg.Quick {
		rounds = 2
	}
	const sharePages = 5200
	page := uint64(sharePages)
	for round := 0; round < rounds; round++ {
		for i, dom := range f.doms {
			for j := 0; j < 2; j++ {
				id, err := f.w.mon.Share(core.InitialDomain, f.w.cl.HeapNode(), dom, c22PageRegion(page, 1), cap.MemRW, cap.CleanFlushTLB)
				if err != nil {
					return nil, err
				}
				page++
				if err := f.enqueue(i, core.CallRevoke, uint64(id)); err != nil {
					return nil, err
				}
			}
			if err := f.enqueue(i, core.CallAttest, uint64(round)); err != nil {
				return nil, err
			}
			if err := f.enqueue(i, core.CallEnumerateLen); err != nil {
				return nil, err
			}
		}
		f.w.mon.DrainRings()
	}
	if _, err := f.w.mon.ForceKillAll(f.doms[len(f.doms)-2], f.doms[len(f.doms)-1]); err != nil {
		return nil, err
	}
	f.w.mon.DrainRings()
	st := f.w.mon.Stats()
	return &c22MixedRun{
		w:               f.w,
		cycles:          f.w.mach.Clock.Cycles(),
		ringOps:         st.RingOps,
		revocations:     st.Revocations,
		drainRounds:     uint64(rounds),
		shootdownRounds: st.RingShootdowns,
	}, nil
}

// c22StormRun is one kill-storm configuration.
type c22StormRun struct {
	w        *world
	cycles   uint64
	kills    uint64
	graces   uint64
	combined uint64
}

// runC22Storm builds c22StormVictims ring-owning tenants, each with an
// exclusive 8-page slab (forced-scrub fodder), and kills them all in
// one ForceKillAll.
func runC22Storm(cfg Config) (*c22StormRun, error) {
	f, err := newC22Fleet(cfg, c22StormVictims)
	if err != nil {
		return nil, err
	}
	// Exclusive slabs: granted wholesale, away from the ring pages so
	// each victim scrubs at least two disjoint regions.
	for i, dom := range f.doms {
		slab := uint64(6000 + i*8)
		if _, err := f.w.mon.Grant(core.InitialDomain, f.w.cl.HeapNode(), dom, c22PageRegion(slab, 8), cap.MemRW, cap.CleanNone); err != nil {
			return nil, err
		}
		if err := f.enqueue(i, core.CallSelfID); err != nil {
			return nil, err
		}
	}
	f.w.mon.DrainRings()
	es0 := f.w.mon.EpochStats()
	cyclesBefore := f.w.mach.Clock.Cycles()
	n, err := f.w.mon.ForceKillAll(f.doms...)
	if err != nil {
		return nil, err
	}
	es1 := f.w.mon.EpochStats()
	return &c22StormRun{
		w:        f.w,
		cycles:   f.w.mach.Clock.Cycles() - cyclesBefore,
		kills:    uint64(n),
		graces:   es1.Syncs - es0.Syncs,
		combined: es1.CombinedSyncs - es0.CombinedSyncs,
	}, nil
}
