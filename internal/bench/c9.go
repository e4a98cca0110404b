package bench

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "C9",
		Title: "Recursive nesting: domains all the way down",
		Paper: "§3.5 'supports arbitrary nesting'; §4.2 nested enclaves",
		Run:   runC9,
	})
}

// runC9 builds a chain of nested enclaves, each spawned by its parent
// from the parent's own exclusively-granted heap, and measures creation
// and call cost per level. Shape: every level succeeds (SGX stops at
// depth 1, the VM-only monitor at depth 1), per-level creation cost
// stays flat (no blow-up with depth), each level is isolated from every
// ancestor, and tearing down level 1 cascades to the deepest level.
func runC9(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C9", Title: "Nesting depth sweep",
		Columns: []string{"depth", "create cycles", "invoke cycles", "isolated from ancestors"},
	}
	depth := 6
	if cfg.Quick {
		depth = 4
	}
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return nil, err
	}
	// dom0 hosts the invocations on core 1.
	if err := w.mon.Launch(core.InitialDomain, 1); err != nil {
		return nil, err
	}
	if _, err := w.mon.RunCore(1, 10); err != nil {
		return nil, err
	}

	type level struct {
		dom    *libtyche.Domain
		client *libtyche.Client
	}
	chain := []level{{dom: nil, client: w.cl}}
	var createCosts, invokeCosts []uint64
	// Heap sizes shrink by a constant amount per level: each child's
	// heap must fit inside the parent's.
	heapPages := uint64(16 * depth)
	for lvl := 1; lvl <= depth; lvl++ {
		parent := chain[lvl-1].client
		img := addImage(fmt.Sprintf("nest-%d", lvl), uint32(lvl)).WithHeap(".heap", heapPages*phys.PageSize)
		var dom *libtyche.Domain
		c, err := cycles(w.mach, func() error {
			var err error
			dom, err = parent.Load(img, loadOn(1))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("nesting level %d: %w", lvl, err)
		}
		if _, err := dom.Seal(); err != nil {
			return nil, err
		}
		client := dom.Client()
		heapNode, _ := dom.SegmentNode(".heap")
		heapRegion, _ := dom.SegmentRegion(".heap")
		if err := client.SetHeap(heapNode, heapRegion); err != nil {
			return nil, err
		}
		// Invoke through the monitor from dom0's context.
		ic, err := cycles(w.mach, func() error {
			got, err := dom.Invoke(1, 10000, 40)
			if err != nil {
				return err
			}
			if got != uint64(40+lvl) {
				return fmt.Errorf("level %d returned %d", lvl, got)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Isolation: no ancestor (including dom0) can read this level's
		// text.
		text, _ := dom.SegmentRegion(".text")
		isolated := true
		for a := 0; a < lvl; a++ {
			ancestor := core.InitialDomain
			if a > 0 {
				ancestor = chain[a].dom.ID()
			}
			if w.mon.CheckAccess(ancestor, text.Start, cap.RightRead) {
				isolated = false
			}
		}
		chain = append(chain, level{dom: dom, client: client})
		createCosts = append(createCosts, c)
		invokeCosts = append(invokeCosts, ic)
		heapPages -= 16
		res.row(fmtU(uint64(lvl)), fmtU(c), fmtU(ic), boolYes(isolated))
		if !isolated {
			res.check("isolation-at-depth", false, "level %d readable by an ancestor", lvl)
		}
	}
	res.check("all-levels-created", len(chain) == depth+1,
		"nested enclaves to depth %d (sgx: depth 1; vm-only monitor: depth 1)", depth)
	// Per-level creation cost flat-ish: last within 4x of first.
	flat := createCosts[len(createCosts)-1] < 4*createCosts[0]
	res.check("creation-cost-flat", flat,
		"create cost %d -> %d cycles across depth (no super-linear growth)",
		createCosts[0], createCosts[len(createCosts)-1])
	// Invoke cost independent of depth (the monitor mediates directly,
	// no per-level hop).
	inv := invokeCosts[len(invokeCosts)-1] < 2*invokeCosts[0]+w.mach.Cost.VMExit
	res.check("invoke-depth-independent", inv,
		"invoke cost %d -> %d cycles (transition cost does not stack with depth)",
		invokeCosts[0], invokeCosts[len(invokeCosts)-1])

	// Teardown cascade: killing level 1 must destroy the whole chain.
	deepText, _ := chain[depth].dom.SegmentRegion(".text")
	if err := chain[1].dom.Kill(); err != nil {
		return nil, err
	}
	gone := true
	for lvl := 1; lvl <= depth; lvl++ {
		if w.mon.CheckAccess(chain[lvl].dom.ID(), deepText.Start, cap.RightsNone) {
			gone = false
		}
	}
	res.check("teardown-cascades", gone,
		"killing level 1 revoked every nested level's access (cascading revocation)")
	return res, nil
}
