package cap

import (
	"fmt"
	"sort"
	"strings"
)

// TreeString renders the capability lineage forest — the structure
// grant/share/revoke operate on (§4.1) — for diagnostics and the
// tyche-sim dump. Roots are boot-time capabilities; indentation shows
// derivation.
func (s *Space) TreeString() string {
	var roots []*node
	for _, n := range s.nodes {
		if n.parent == nil {
			roots = append(roots, n)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].id < roots[j].id })
	var b strings.Builder
	for _, r := range roots {
		s.writeNode(&b, r, 0)
	}
	return b.String()
}

func (s *Space) writeNode(b *strings.Builder, n *node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	sealed := ""
	if s.sealed[n.owner] {
		sealed = " (sealed)"
	}
	fmt.Fprintf(b, "n%d d%d%s %s %v [%v]", n.id, n.owner, sealed, n.kind, n.res, n.rights)
	if n.cleanup != CleanNone {
		fmt.Fprintf(b, " cleanup=%v", n.cleanup)
	}
	b.WriteByte('\n')
	children := append([]*node(nil), n.children...)
	sort.Slice(children, func(i, j int) bool { return children[i].id < children[j].id })
	for _, c := range children {
		s.writeNode(b, c, depth+1)
	}
}
