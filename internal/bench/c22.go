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
		Title: "Reclamation rounds: multi-ring drains, kill storm",
		Paper: "§3 every operation is mediated: a reclamation round retires many tenants' revocations behind one shootdown round",
		Gates: append([]Gate{
			{"mixed-complete", "mixed_ring_ops / mixed_descriptors", eq(1), "every descriptor every tenant enqueued is drained"},
			{"mixed-coalesces", "mixed_shootdown_rounds / mixed_drain_rounds", eq(1), "§3: a reclamation round retires many revocations behind one shootdown round"},
			{"storm-kills", "storm_kills", eq(c22StormVictims), "the storm kills every victim"},
			{"storm-rounds", "storm_shootdown_rounds", le(c22StormVictims * 2 / 3), "the kills share shootdown rounds: at most kills/1.5"},
		}, traceGates...),
	}, runC22)
}

// runC22 exercises the drain round (core/drain.go) in two phases:
//
//	mixed — a 6-tenant ring fleet running a revocation-heavy descriptor
//	        mix (flush-cleanup revokes + attests) with a ForceKillAll
//	        storm at the end.
//	storm — a 12-victim ForceKillAll over ring-owning tenants with
//	        exclusive slabs; it counts the storm's shootdown rounds.
func runC22(cfg Config, res *Result) error {
	res.Columns = []string{"phase", "cycles", "ops", "rounds"}
	if err := runC22Mixed(cfg, res); err != nil {
		return fmt.Errorf("c22 mixed: %w", err)
	}
	if err := runC22Storm(cfg, res); err != nil {
		return fmt.Errorf("c22 storm: %w", err)
	}
	return nil
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

// runC22Mixed drives flush-cleanup revokes and attests through every
// ring, then storms the last two tenants.
func runC22Mixed(cfg Config, res *Result) error {
	f, err := newC22Fleet(cfg, c22MixedTenants)
	if err != nil {
		return err
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
					return err
				}
				page++
				if err := f.enqueue(i, core.CallRevoke, uint64(id)); err != nil {
					return err
				}
			}
			if err := f.enqueue(i, core.CallAttest, uint64(round)); err != nil {
				return err
			}
			if err := f.enqueue(i, core.CallEnumerateLen); err != nil {
				return err
			}
		}
		f.w.mon.DrainRings()
	}
	if _, err := f.w.mon.ForceKillAll(f.doms[len(f.doms)-2], f.doms[len(f.doms)-1]); err != nil {
		return err
	}
	f.w.mon.DrainRings()
	f.w.audit(res, "mixed")
	st, cycles := f.w.mon.Stats(), f.w.mach.Clock.Cycles()
	res.row("mixed", fmtU(cycles), fmtU(st.RingOps), "-")
	res.metric("mixed_cycles", float64(cycles))
	res.metric("mixed_revocations", float64(st.Revocations))
	res.metric("mixed_ring_ops", float64(st.RingOps))
	res.metric("mixed_descriptors", float64(rounds*c22MixedTenants*c22MixedPerRound))
	res.metric("mixed_drain_rounds", float64(rounds))
	res.metric("mixed_shootdown_rounds", float64(st.RingShootdowns))
	return nil
}

// runC22Storm builds c22StormVictims ring-owning tenants, each with an
// exclusive 8-page slab (forced-scrub fodder), and kills them all in
// one ForceKillAll.
func runC22Storm(cfg Config, res *Result) error {
	f, err := newC22Fleet(cfg, c22StormVictims)
	if err != nil {
		return err
	}
	// Exclusive slabs: granted wholesale, away from the ring pages so
	// each victim scrubs at least two disjoint regions.
	for i, dom := range f.doms {
		slab := uint64(6000 + i*8)
		if _, err := f.w.mon.Grant(core.InitialDomain, f.w.cl.HeapNode(), dom, c22PageRegion(slab, 8), cap.MemRW, cap.CleanNone); err != nil {
			return err
		}
		if err := f.enqueue(i, core.CallSelfID); err != nil {
			return err
		}
	}
	f.w.mon.DrainRings()
	sd0 := f.w.ck.Counts().Shootdowns
	var kills int
	kc, err := cycles(f.w.mach, func() (err error) {
		kills, err = f.w.mon.ForceKillAll(f.doms...)
		return err
	})
	if err != nil {
		return err
	}
	rounds := f.w.ck.Counts().Shootdowns - sd0
	res.row("storm", fmtU(kc), fmt.Sprint(kills), fmtU(rounds))
	res.metric("storm_kills", float64(kills))
	res.metric("storm_shootdown_rounds", float64(rounds))
	f.w.audit(res, "storm")
	return nil
}
