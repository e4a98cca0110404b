// Package tracetest holds what the tests of more than one package use
// to compare traces. Nothing outside tests imports it.
package tracetest

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"github.com/tyche-sim/tyche/internal/trace"
)

// Normalize renders events as a canonical text form suitable for
// golden-trace comparison across runs, schedulers, and machine shapes:
// events are ordered by sequence number, cycle stamps and sequence
// numbers are dropped (they vary with core count and interleaving),
// the boot core count is elided, each shootdown round prints as one
// line — its further domains (KShootdownFor) listed after the first and
// its per-core acks folded into a single "acks=all" (or
// "acks=<n>/<targeted>") suffix — and capability-node IDs (whose
// absolute values depend on how many core nodes boot allocated) are
// renumbered by first appearance. A round targets the cores resident
// for its domains, not every core, so the same logical run normalises
// identically on 2 or 8 cores.
func Normalize(events []trace.Event) string {
	evs := append([]trace.Event(nil), events...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })

	// Dense renumbering of capability-node IDs. Only kinds whose Node
	// field holds a node ID participate; for the others Node carries a
	// PC or permission bits that must stay literal.
	nodeAlias := make(map[uint64]int)
	canonNode := func(n uint64) string {
		if n == 0 {
			return "0"
		}
		a, ok := nodeAlias[n]
		if !ok {
			a = len(nodeAlias)
			nodeAlias[n] = a
		}
		return fmt.Sprintf("#%d", a)
	}
	// Operation-frame tokens (KOpBegin/KOpEnd Node field) are a separate
	// namespace from capability-node IDs; alias them independently.
	tokAlias := make(map[uint64]int)
	canonTok := func(n uint64) string {
		if n == 0 {
			return "0"
		}
		a, ok := tokAlias[n]
		if !ok {
			a = len(tokAlias)
			tokAlias[n] = a
		}
		return fmt.Sprintf("t%d", a)
	}

	var b strings.Builder
	pendingAcks := -1 // acks seen for the last shootdown, -1 = none open
	var pending trace.Event
	var doms []string // the open round's domains
	flush := func() {
		if pendingAcks < 0 {
			return
		}
		targeted := bits.OnesCount64(pending.Aux)
		suffix := fmt.Sprintf("acks=%d/%d", pendingAcks, targeted)
		if pendingAcks == targeted {
			suffix = "acks=all"
		}
		fmt.Fprintf(&b, "%s dom=%s targets=%#x full=%d addr=%#x size=%d %s\n",
			pending.Kind, strings.Join(doms, ","), pending.Aux, pending.Node, pending.Addr, pending.Size, suffix)
		pendingAcks = -1
	}
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KShootdown:
			flush()
			pending, pendingAcks = ev, 0
			doms = append(doms[:0], fmt.Sprint(ev.Domain))
			continue
		case trace.KShootdownFor:
			if pendingAcks >= 0 {
				doms = append(doms, fmt.Sprint(ev.Domain))
				continue
			}
		case trace.KShootdownAck:
			if pendingAcks >= 0 {
				pendingAcks++
				continue
			}
			// Ack with no open shootdown: keep it visible — the checker
			// would flag it, and golden traces should too.
		case trace.KBoot:
			flush()
			b.WriteString("boot\n")
			continue
		}
		flush()
		node := fmt.Sprint(ev.Node)
		switch ev.Kind {
		case trace.KShare, trace.KGrant, trace.KRevoke:
			node = canonNode(ev.Node)
		case trace.KOpBegin, trace.KOpEnd:
			// Node carries the operation-frame token, minted from a
			// global counter — renumber by first appearance so traces
			// compare across runs (token 0, the legacy untokened form,
			// stays literal).
			node = canonTok(ev.Node)
		}
		fmt.Fprintf(&b, "%s core=%d dom=%d aux=%d node=%s addr=%#x size=%d\n",
			ev.Kind, ev.Core, ev.Domain, ev.Aux, node, ev.Addr, ev.Size)
	}
	flush()
	return b.String()
}
