package bench

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "C3",
		Title: "Capability operations and cascading revocation",
		Paper: "§4.1 grant/share/revoke over a lineage tree, 'cascading revocations, even in the presence of circular sharing'",
		Gates: []Gate{
			{"cascade-linear", "{cascade}_revoked / {cascade}_nodes", eq(1), "§4.1: a cascade visits each derived node exactly once, every shape and size"},
			{"cycles-terminate", "{mesh}_revoked / {mesh}_nodes", eq(1), "§4.1: cascading revocations, even in the presence of circular sharing"},
		},
	}, runC3)
}

// runC3 exercises the capability engine itself: revocation cascades
// over derivation trees of growing size (chains, stars, and
// circular-sharing meshes). Shape: a cascade visits every derived node
// exactly once — its work is linear in the subtree it removes — and
// terminates on cyclic sharing graphs. What an operation costs the
// host (cap.share_ns, cap.detach_ns, core.share_us) is benchmark/'s
// question.
func runC3(cfg Config, res *Result) error {
	res.Columns = []string{"operation", "shape", "nodes", "nodes revoked"}
	sizes := []int{4, 16, 64, 256}
	if cfg.Quick {
		sizes = []int{4, 16, 64}
	}
	for _, n := range sizes {
		for _, shape := range []string{"chain", "star", "cycle-mesh"} {
			revoked, err := cascade(shape, n)
			if err != nil {
				return err
			}
			res.row("revoke cascade", shape, fmtU(uint64(n)), fmtU(uint64(revoked)))
			tag := fmt.Sprintf("%s_n%d", shape, n)
			res.sweep("cascade", tag)
			if shape == "cycle-mesh" {
				res.sweep("mesh", tag)
			}
			res.metric(tag+"_nodes", float64(n))
			res.metric(tag+"_revoked", float64(revoked))
		}
	}
	return nil
}

// cascade builds a derivation graph of n nodes in the given shape,
// revokes it at the root derivation, and returns how many nodes the
// cascade visited.
func cascade(shape string, n int) (int, error) {
	s := cap.NewSpace()
	root, err := s.CreateRoot(1, cap.MemResource(phys.MakeRegion(0, 1<<30)), cap.MemFull, cap.CleanNone)
	if err != nil {
		return 0, err
	}
	region := func(i int) cap.Resource {
		return cap.MemResource(phys.MakeRegion(0, uint64(1<<30)-uint64(i)*phys.PageSize))
	}
	// top is the first derived node; the cascade revokes it and its
	// subtree (n nodes total).
	top, err := s.Share(root, 2, region(0), cap.MemRW|cap.RightShare, cap.CleanNone)
	if err != nil {
		return 0, err
	}
	cur := top
	for i := 1; i < n; i++ {
		var next cap.NodeID
		switch shape {
		case "chain":
			next, err = s.Share(cur, cap.OwnerID(2+i%8), region(i), cap.MemRW|cap.RightShare, cap.CleanNone)
			cur = next
		case "star":
			next, err = s.Share(top, cap.OwnerID(2+i%8), region(i), cap.MemRW|cap.RightShare, cap.CleanNone)
		case "cycle-mesh":
			// Alternate ownership 2<->3 so the sharing relation between
			// owners is circular while lineage stays a tree.
			next, err = s.Share(cur, cap.OwnerID(2+(i%2)), region(i), cap.MemRW|cap.RightShare, cap.CleanNone)
			cur = next
		default:
			return 0, fmt.Errorf("c3: unknown shape %q", shape)
		}
		if err != nil {
			return 0, err
		}
	}
	acts, err := s.Revoke(top)
	if err != nil {
		return 0, err
	}
	return len(acts), nil
}
