package check

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// twinEngine is the property engine as it was before frames, shootdown
// records and ack sets were recycled: a fresh frame per bracket, a fresh
// record and ack map per round, a fresh residency set per replacing
// transition. It exists only as an oracle. The online checker and
// Replay drive the one engine, so a recycling bug would make them agree
// on the same wrong answer; FuzzTraceReplay compares the engine with
// this twin instead. Keep it as it is: it is not meant to
// follow the engine's code, only its verdicts.
type twinEngine struct {
	cores      int
	resident   map[int32]map[uint64]bool
	dead       map[uint64]bool
	frames     []*twinFrame
	last       *twinShootdown
	orphans    []*twinShootdown
	scrubPlans map[uint64][]region
	counts     Counts
	violations []Violation
}

type twinShootdown struct {
	ev   trace.Event
	acks map[uint64]bool
}

type twinFrame struct {
	ev        trace.Event
	batch     bool
	drain     bool
	shootdown []*twinShootdown
}

// replayTwin runs events, already in Seq order, through a fresh twin and
// closes it.
func replayTwin(events []trace.Event) *twinEngine {
	c := &twinEngine{dead: make(map[uint64]bool), scrubPlans: make(map[uint64][]region)}
	for _, ev := range events {
		c.step(ev)
	}
	c.end()
	return c
}

func (c *twinEngine) violate(ev trace.Event, format string, args ...any) {
	c.violations = append(c.violations, Violation{Event: ev, Msg: fmt.Sprintf(format, args...)})
}

func (c *twinEngine) step(ev trace.Event) {
	switch ev.Kind {
	case trace.KTransition, trace.KShare, trace.KGrant, trace.KRevoke,
		trace.KSeal, trace.KEPTMap, trace.KPMPWrite, trace.KAttest,
		trace.KBatchBegin, trace.KBatchEnd:
		if c.dead[ev.Domain] {
			c.violate(ev, "dead domain %d used in successful %s", ev.Domain, ev.Kind)
		}
	case trace.KCreate:
		if c.dead[ev.Aux] {
			c.violate(ev, "dead domain %d created domain %d", ev.Aux, ev.Domain)
		}
	}

	switch ev.Kind {
	case trace.KBoot:
		c.cores = int(ev.Size)
		c.resident = map[int32]map[uint64]bool{}

	case trace.KOpBegin:
		c.frames = append(c.frames, &twinFrame{ev: ev})

	case trace.KBatchBegin:
		c.counts.Batches++
		c.frames = append(c.frames, &twinFrame{ev: ev, batch: true})

	case trace.KDrainBegin:
		c.counts.Drains++
		c.frames = append(c.frames, &twinFrame{ev: ev, drain: true})

	case trace.KDrainEnd:
		idx := -1
		for i := len(c.frames) - 1; i >= 0; i-- {
			if c.frames[i].drain && c.frames[i].ev.Node == ev.Node {
				idx = i
				break
			}
		}
		if idx < 0 {
			c.violate(ev, "drain round end token %d matches no open drain round", ev.Node)
			break
		}
		f := c.frames[idx]
		c.frames = append(c.frames[:idx], c.frames[idx+1:]...)
		if len(f.shootdown) > 1 {
			c.violate(ev, "drain round performed %d shootdown rounds (cross-ring coalescing requires at most 1)",
				len(f.shootdown))
		}
		for _, sd := range f.shootdown {
			if acked, targeted := sd.acked(); acked != targeted {
				c.violate(ev, "drain shootdown [%#x,+%d) acked by %d/%d cores when round completed",
					sd.ev.Addr, sd.ev.Size, acked, targeted)
			}
			if c.last == sd {
				c.last = nil
			}
		}

	case trace.KBatchEnd:
		c.counts.BatchedOps += ev.Aux
		idx := -1
		for i := len(c.frames) - 1; i >= 0; i-- {
			if c.frames[i].batch && c.frames[i].ev.Node == ev.Node {
				idx = i
				break
			}
		}
		if idx < 0 {
			c.violate(ev, "batch end token %d matches no open batch", ev.Node)
			break
		}
		f := c.frames[idx]
		c.frames = append(c.frames[:idx], c.frames[idx+1:]...)
		if len(f.shootdown) > 1 {
			c.violate(ev, "batch performed %d shootdown rounds (coalescing requires at most 1)",
				len(f.shootdown))
		}
		for _, sd := range f.shootdown {
			if acked, targeted := sd.acked(); acked != targeted {
				c.violate(ev, "batch shootdown [%#x,+%d) acked by %d/%d cores when batch completed",
					sd.ev.Addr, sd.ev.Size, acked, targeted)
			}
			if c.last == sd {
				c.last = nil
			}
		}

	case trace.KOpEnd:
		if len(c.frames) == 0 {
			c.violate(ev, "operation end with no open operation")
			break
		}
		idx := len(c.frames) - 1
		if ev.Node != 0 {
			idx = -1
			for i := len(c.frames) - 1; i >= 0; i-- {
				if c.frames[i].ev.Node == ev.Node {
					idx = i
					break
				}
			}
			if idx < 0 {
				c.violate(ev, "operation end token %d matches no open operation", ev.Node)
				break
			}
		}
		f := c.frames[idx]
		c.frames = append(c.frames[:idx], c.frames[idx+1:]...)
		if f.ev.Aux != ev.Aux {
			c.violate(ev, "operation end %d does not match open operation %d", ev.Aux, f.ev.Aux)
		}
		for _, sd := range f.shootdown {
			if acked, targeted := sd.acked(); acked != targeted {
				c.violate(ev, "shootdown [%#x,+%d) acked by %d/%d cores when operation completed",
					sd.ev.Addr, sd.ev.Size, acked, targeted)
			}
			if c.last == sd {
				c.last = nil
			}
		}

	case trace.KShootdown:
		c.counts.Shootdowns++
		sd := &twinShootdown{ev: ev, acks: make(map[uint64]bool)}
		c.last = sd
		if f := c.roundOwner(); f != nil {
			f.shootdown = append(f.shootdown, sd)
		} else {
			c.orphans = append(c.orphans, sd)
		}
		c.require(ev)

	case trace.KShootdownFor:
		if c.last == nil {
			c.violate(ev, "shootdown for domain %d with no shootdown in flight", ev.Domain)
			break
		}
		c.require(ev)

	case trace.KShootdownAck:
		if c.last == nil {
			c.violate(ev, "shootdown ack from core %d with no shootdown in flight", ev.Aux)
			break
		}
		if !c.last.targeted(ev.Aux) {
			c.violate(ev, "core %d acknowledged a shootdown that did not target it", ev.Aux)
		}
		if c.last.acks[ev.Aux] {
			c.violate(ev, "core %d acknowledged the same shootdown twice", ev.Aux)
		}
		c.last.acks[ev.Aux] = true
		if c.last.ev.Node == 1 && ev.Aux < uint64(c.cores) {
			delete(c.resident, int32(ev.Aux))
		}

	case trace.KScrubPlan:
		c.scrubPlans[ev.Domain] = append(c.scrubPlans[ev.Domain],
			region{addr: ev.Addr, size: ev.Size})

	case trace.KScrub:
		c.counts.PagesScrubbed += ev.Size / phys.PageSize
		plan := c.scrubPlans[ev.Domain]
		found := false
		for i, r := range plan {
			if r.addr == ev.Addr && r.size == ev.Size {
				c.scrubPlans[ev.Domain] = append(plan[:i], plan[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			c.violate(ev, "scrub of [%#x,+%d) not in domain %d's scrub plan", ev.Addr, ev.Size, ev.Domain)
		}

	case trace.KKill:
		for _, r := range c.scrubPlans[ev.Domain] {
			c.violate(ev, "domain %d killed with unscrubbed exclusive region [%#x,+%d)",
				ev.Domain, r.addr, r.size)
		}
		delete(c.scrubPlans, ev.Domain)
		c.dead[ev.Domain] = true

	case trace.KVMCall:
		c.counts.VMCalls++
	case trace.KTransition:
		if ev.Size == trace.TransFast {
			c.counts.FastSwitches++
		} else {
			c.counts.Transitions++
		}
		if ev.Core >= 0 && int(ev.Core) < c.cores {
			if ev.Size != trace.TransFast || c.resident[ev.Core] == nil {
				c.resident[ev.Core] = map[uint64]bool{}
			}
			c.resident[ev.Core][ev.Domain] = true
		}
	case trace.KShare, trace.KGrant, trace.KSeal:
		c.counts.CapOps++
	case trace.KRevoke:
		if ev.Aux == 0 {
			c.counts.CapOps++
		}
		c.counts.Revocations++
	case trace.KForceKill:
		c.counts.ForcedKills++
	case trace.KContain:
		c.counts.MachineChecks++
		c.counts.CoresParked++
	case trace.KIRQRoute:
		c.counts.IRQsRouted++
	case trace.KIRQDrop:
		c.counts.IRQsDropped++
	case trace.KAttest:
		c.counts.Attests++
	}
}

// targeted reports whether the round's core mask names core.
func (sd *twinShootdown) targeted(core uint64) bool {
	return core < 64 && sd.ev.Aux>>core&1 == 1
}

// acked counts the targeted cores that acked and the cores targeted.
func (sd *twinShootdown) acked() (acked, targeted int) {
	for core := uint64(0); core < 64; core++ {
		if sd.targeted(core) {
			targeted++
			if sd.acks[core] {
				acked++
			}
		}
	}
	return acked, targeted
}

// require flags each core resident for ev.Domain that the round in
// flight does not target, in core order.
func (c *twinEngine) require(ev trace.Event) {
	for core := 0; core < c.cores; core++ {
		if c.resident[int32(core)][ev.Domain] && !c.last.targeted(uint64(core)) {
			c.violate(ev, "shootdown [%#x,+%d) left out core %d, resident for domain %d",
				ev.Addr, ev.Size, core, ev.Domain)
		}
	}
}

func (c *twinEngine) roundOwner() *twinFrame {
	for i := len(c.frames) - 1; i >= 0; i-- {
		f := c.frames[i]
		if f.batch || f.drain {
			return f
		}
		if f.ev.Kind == trace.KOpBegin &&
			(f.ev.Aux == trace.OpRevoke || f.ev.Aux == trace.OpKill) {
			return f
		}
	}
	return nil
}

func (c *twinEngine) end() {
	for _, f := range c.frames {
		c.violate(f.ev, "operation %d still open at end of trace", f.ev.Aux)
	}
	c.frames = nil
	for _, sd := range c.orphans {
		if acked, targeted := sd.acked(); acked != targeted {
			c.violate(sd.ev, "shootdown outside any operation acked by %d/%d cores",
				acked, targeted)
		}
	}
	c.orphans = nil
}
