package fleet

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/trace"
)

// NodeAudit is one node's fleet-verification verdict.
type NodeAudit struct {
	Node string
	// SelfErr is the node's own sharded checker verdict (nil = clean).
	SelfErr error
	// Digests counts hash-chained digests the control plane consumed
	// from this node.
	Digests uint64
	// Flags are the control-plane verifier's findings: reported
	// violations, digest-chain breaks, and replayed/diverging
	// intervals.
	Flags []string
}

// Audit finalizes fleet-wide runtime verification: every node ships
// its final digest interval (the end-of-trace verdicts ride in it),
// then the control plane finalizes each node's chain and reports
// per-node verdicts.
func (f *Fleet) Audit() ([]NodeAudit, error) {
	var out []NodeAudit
	for i, n := range f.Nodes {
		if n.SVC == nil {
			continue
		}
		a := NodeAudit{Node: n.Name, SelfErr: n.SVC.Finalize()}
		ver := f.vers[i]
		a.Flags = ver.Finalize()
		a.Digests = ver.Digests()
		out = append(out, a)
	}
	return out, f.Err()
}

// SeedViolation plants a deliberate isolation violation on node i: a
// scratch domain takes an exclusive grant, the monitor kills it, and
// then the node's "hardware" emits a share by the dead domain — the
// same single-node seeding C21 uses, here to prove the fleet verifier
// localizes the fault to exactly one node's digest chain.
func (f *Fleet) SeedViolation(i int) error {
	n := f.Nodes[i]
	scratch, err := n.Mon.CreateDomain(core.InitialDomain, "seeded-violation")
	if err != nil {
		return fmt.Errorf("fleet: seed violation on %s: %w", n.Name, err)
	}
	rg, err := n.CL.Alloc(1)
	if err != nil {
		return fmt.Errorf("fleet: seed violation on %s: %w", n.Name, err)
	}
	if _, err := n.Mon.Grant(core.InitialDomain, n.CL.HeapNode(), scratch,
		cap.MemResource(rg), cap.MemRW, cap.CleanNone); err != nil {
		return fmt.Errorf("fleet: seed violation on %s: %w", n.Name, err)
	}
	if err := n.Mon.ForceKill(scratch); err != nil {
		return fmt.Errorf("fleet: seed violation on %s: %w", n.Name, err)
	}
	n.Mach.Trace(trace.GlobalCore, trace.KShare, uint64(scratch), 0, 99, 0x1000, 4096)
	return nil
}
