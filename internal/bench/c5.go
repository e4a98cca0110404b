package bench

import (
	"errors"
	"fmt"

	"github.com/tyche-sim/tyche/internal/backend"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "C5",
		Title: "PMP segment pressure: fixed entries force careful layout",
		Paper: "§4 'PMP only supports a fixed number of segments, which requires a careful memory layout of trust domains and validation by the monitor'",
		Run:   runC5,
	})
}

// runC5 sweeps the number of disjoint memory segments a domain holds
// (extra shared buffers fragment its layout) on both backends. Shape:
// the EPT backend accepts any count; the PMP backend accepts up to its
// entry budget and then rejects with a layout-validation error; PMP
// transition cost grows with the segment count while EPT transitions
// stay flat.
func runC5(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C5", Title: "PMP segment pressure",
		Columns: []string{"segments", "pmp(16 entries)", "pmp cycles/transition", "vtx", "vtx cycles/transition"},
	}
	maxSegs := 24
	if cfg.Quick {
		maxSegs = 20
	}
	var pmpFailAt int
	var vtxFailed error
	var firstPMP, lastPMP, firstVTX, lastVTX uint64

	for segs := 2; segs <= maxSegs; segs += 2 {
		pmpCost, pmpErr := segmentedDomainCost(cfg, core.BackendPMP, segs)
		vtxCost, vtxErr := segmentedDomainCost(cfg, core.BackendVTX, segs)
		vtxCell, vtxCycles := "ok", fmtU(vtxCost)
		if vtxErr != nil {
			vtxCell, vtxCycles = "REJECTED", "-"
			if vtxFailed == nil {
				vtxFailed = fmt.Errorf("%d segments: %w", segs, vtxErr)
			}
		}
		pmpCell := "ok"
		pmpCycles := fmtU(pmpCost)
		if pmpErr != nil {
			var exhausted *backend.PMPExhaustedError
			if !errors.As(pmpErr, &exhausted) {
				return nil, fmt.Errorf("pmp with %d segments: %w", segs, pmpErr)
			}
			pmpCell = fmt.Sprintf("REJECTED (needs %d > %d)", exhausted.Needed, exhausted.Available)
			pmpCycles = "-"
			if pmpFailAt == 0 {
				pmpFailAt = segs
			}
		} else {
			if firstPMP == 0 {
				firstPMP = pmpCost
			}
			lastPMP = pmpCost
		}
		if vtxErr == nil {
			if firstVTX == 0 {
				firstVTX = vtxCost
			}
			lastVTX = vtxCost
		}
		res.row(fmtU(uint64(segs)), pmpCell, pmpCycles, vtxCell, vtxCycles)
	}
	pmpGrew := lastPMP > firstPMP
	vtxFlat := lastVTX <= firstVTX+firstVTX/10

	res.check("pmp-budget-enforced", pmpFailAt > 0 && pmpFailAt <= 18,
		"monitor rejected layouts needing more than the budget (first failure at %d segments)", pmpFailAt)
	res.check("vtx-unbounded", vtxFailed == nil,
		"EPT backend accepted every layout up to %d segments (first rejection: %v)", maxSegs, vtxFailed)
	res.check("pmp-transition-grows", pmpGrew,
		"PMP transition cost grew %d -> %d cycles with layout size", firstPMP, lastPMP)
	res.check("vtx-transition-flat", vtxFlat,
		"EPT transition cost flat: %d -> %d cycles", firstVTX, lastVTX)
	res.note("the domain's own footprint contributes segments beyond the added buffers; dom0's budget also shrinks as grants fragment it")
	return res, nil
}

// segmentedDomainCost builds a domain whose flattened layout has
// roughly `segs` disjoint segments (alternating rights stop merging)
// and returns the cycle cost of one mediated call+return into it.
func segmentedDomainCost(cfg Config, kind core.BackendKind, segs int) (uint64, error) {
	wcfg := cfg
	wcfg.Backend = kind
	o := defaultWorldOpts()
	o.pmpEntries = 16
	w, err := newWorld(wcfg, o)
	if err != nil {
		return 0, err
	}
	dom, err := w.cl.Load(addImage("c5", 1), loadOn(0))
	if err != nil {
		return 0, err
	}
	// The loaded image already occupies a couple of segments; add
	// buffers until the flattened layout reaches `segs`.
	base := w.mon.MonitorRegion().Start - phys.Addr(4<<20)
	for i := 0; ; i++ {
		grants := w.cl.Monitor().OwnerNodes(dom.ID())
		flat := 0
		var memGrants []cap.MemoryGrant
		for _, g := range grants {
			if g.Resource.Kind == cap.ResMemory {
				memGrants = append(memGrants, cap.MemoryGrant{Region: g.Resource.Mem, Rights: g.Rights, Node: g.ID})
			}
		}
		flat = len(backend.FlattenGrants(memGrants))
		if flat >= segs {
			break
		}
		if err := shareUnmergeable(w, dom.ID(), base, i); err != nil {
			return 0, err
		}
	}
	return cycles(w.mach, func() error {
		_, err := dom.Invoke(0, 10000, 1)
		return err
	})
}

// shareUnmergeable shares dom0's i-th single page above base with dom:
// alternating ro/rw with a one-page hole between neighbours, so no two
// of them flatten into one segment or merge into one report record.
func shareUnmergeable(w *world, dom core.DomainID, base phys.Addr, i int) error {
	rights := cap.MemRW
	if i%2 == 1 {
		rights = cap.RightRead
	}
	r := phys.MakeRegion(base+phys.Addr(uint64(i)*2*phys.PageSize), phys.PageSize)
	_, err := w.mon.Share(core.InitialDomain, w.cl.HeapNode(), dom, cap.MemResource(r), rights, cap.CleanNone)
	return err
}
