package core

import (
	"errors"
	"testing"

	"github.com/tyche-sim/tyche/internal/backend"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// fastWorld is a traced vtx world for the fast-path tests: dom0 and n
// more domains, all runnable on core 0 and all entered at one probe
// page that is executable in every view, so guest code that switches
// views keeps running instead of taking a fetch fault that would mask
// the switch.
type fastWorld struct {
	t     *testing.T
	m     *Monitor
	tr    *trace.Tracer
	probe phys.Addr
	doms  []DomainID // doms[0] is dom0
}

func newFastWorld(t *testing.T, n int) *fastWorld {
	t.Helper()
	m := bootWorld(t, BackendVTX)
	w := &fastWorld{t: t, m: m, probe: 90 * pg, doms: []DomainID{InitialDomain}}
	node := dom0MemNode(t, m)
	var coreNode cap.NodeID
	for _, c := range m.OwnerNodes(InitialDomain) {
		if c.Resource.Kind == cap.ResCore && c.Resource.Core == 0 {
			coreNode = c.ID
		}
	}
	for i := 0; i < n; i++ {
		d, err := m.CreateDomain(InitialDomain, "peer")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Share(InitialDomain, node, d, memRes(90, 1), cap.MemRX, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Share(InitialDomain, coreNode, d, cap.CoreResource(0), cap.RightRun, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		w.doms = append(w.doms, d)
	}
	for _, d := range w.doms {
		if err := m.SetEntry(InitialDomain, d, w.probe); err != nil {
			t.Fatal(err)
		}
	}
	w.tr = m.Machine().NewTracer(trace.DefaultRingEntries)
	m.Machine().SetTracer(w.tr)
	return w
}

// transitions returns the KTransition events traced so far.
func (w *fastWorld) transitions() []trace.Event {
	var out []trace.Event
	for _, ev := range w.tr.Events() {
		if ev.Kind == trace.KTransition {
			out = append(out, ev)
		}
	}
	return out
}

// program writes "r14 = idx; VMFUNC; HLT" to the probe page.
func (w *fastWorld) program(idx DomainID) {
	w.t.Helper()
	a := hw.NewAsm()
	a.Movi(14, uint32(idx)).Vmfunc().Hlt()
	if err := w.m.CopyInto(InitialDomain, w.probe, a.MustAssemble(w.probe)); err != nil {
		w.t.Fatal(err)
	}
}

// vmfunc launches from on core 0 and runs the VMFUNC-to-idx program for
// at most budget instructions. It reports the trap that ended the run,
// the domain then installed, and what the monitor saw of it.
func (w *fastWorld) vmfunc(from, idx DomainID, budget int) (trap hw.Trap, in DomainID, exits uint64, trans int) {
	w.t.Helper()
	w.program(idx)
	if err := w.m.Launch(from, 0); err != nil {
		w.t.Fatal(err)
	}
	exits0, trans0 := w.m.Stats().VMExits, len(w.transitions())
	res, err := w.m.RunCore(0, budget)
	if err != nil {
		w.t.Fatal(err)
	}
	return res.Trap, res.Domain, w.m.Stats().VMExits - exits0, len(w.transitions()) - trans0
}

// TestVMFUNCReachesOnlyRegisteredPeers pins the one rule about
// unmediated transitions: guest code reaches a view without the monitor
// only if the monitor registered that very pair on that core, and only
// until either endpoint dies. Mediated calls register nothing; a
// registration opens its own pair in both directions and no other —
// not the domain's own index, not another pair's domains that happen to
// sit in the same core's list.
func TestVMFUNCReachesOnlyRegisteredPeers(t *testing.T) {
	w := newFastWorld(t, 3)
	m, dom0, a, b, c := w.m, w.doms[0], w.doms[1], w.doms[2], w.doms[3]
	everyID := []DomainID{MonitorDomain, dom0, a, b, c, 777}
	// sweep VMFUNCs from every domain in peers to every ID: the index
	// peers names switches views with no trap and no KTransition, every
	// other index faults where it stands.
	sweep := func(stage string, peers map[DomainID]DomainID) {
		t.Helper()
		for from, peer := range peers {
			for _, id := range everyID {
				trap, in, exits, trans := w.vmfunc(from, id, 100)
				if id != peer {
					if trap.Kind != hw.TrapFault || in != from {
						t.Fatalf("%s: VMFUNC %d->%d ended in %v inside domain %d, want a fault inside %d", stage, from, id, trap, in, from)
					}
					continue
				}
				if trap.Kind != hw.TrapHalt || in != id {
					t.Fatalf("%s: VMFUNC %d->%d ended in %v inside domain %d, want halt inside %d", stage, from, id, trap, in, id)
				}
				if exits != 0 || trans != 0 {
					t.Fatalf("%s: VMFUNC %d->%d took %d monitor exits and %d KTransitions, want none", stage, from, id, exits, trans)
				}
			}
		}
	}
	const none = DomainID(1 << 20) // no index in everyID

	if err := m.Launch(dom0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := m.Call(0, a); err != nil {
			t.Fatal(err)
		}
		if err := m.Return(0); err != nil {
			t.Fatal(err)
		}
	}
	sweep("after mediated calls", map[DomainID]DomainID{dom0: none, a: none})

	if err := m.RegisterFastPath(dom0, dom0, a, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterFastPath(b, b, c, 0); err != nil {
		t.Fatal(err)
	}
	sweep("two pairs", map[DomainID]DomainID{dom0: a, a: dom0, b: c, c: b})
	// The monitor-driven switch obeys the same relation.
	if err := m.Launch(dom0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.FastSwitch(0, c); !errors.Is(err, backend.ErrNoFastPath) {
		t.Fatalf("FastSwitch across pairs: %v, want ErrNoFastPath", err)
	}
	if err := m.FastSwitch(0, a); err != nil {
		t.Fatalf("FastSwitch inside the pair: %v", err)
	}

	if err := m.KillDomain(dom0, a); err != nil {
		t.Fatal(err)
	}
	sweep("peer killed", map[DomainID]DomainID{dom0: none, b: c, c: b})
	// Nor does the monitor switch into the dead peer, mediated or fast.
	if err := m.Launch(dom0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Call(0, a); !errors.Is(err, ErrDead) {
		t.Fatalf("Call into the killed peer: %v, want ErrDead", err)
	}
	if err := m.FastSwitch(0, a); !errors.Is(err, ErrDead) {
		t.Fatalf("FastSwitch into the killed peer: %v, want ErrDead", err)
	}
}

// TestTransitionSourceIsInstalledDomain: a transfer's KTransition names
// the domain that was actually running. After a guest-level VMFUNC the
// installed context and the monitor's last-known current domain differ,
// and the trace must follow the hardware.
func TestTransitionSourceIsInstalledDomain(t *testing.T) {
	w := newFastWorld(t, 2)
	m, dom0, e, p := w.m, w.doms[0], w.doms[1], w.doms[2]
	if err := m.RegisterFastPath(dom0, dom0, e, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterFastPath(e, e, p, 0); err != nil {
		t.Fatal(err)
	}
	// hop runs "VMFUNC to idx" in from and stops before the HLT.
	hop := func(from, idx DomainID) {
		t.Helper()
		if _, in, _, _ := w.vmfunc(from, idx, 2); in != idx {
			t.Fatalf("guest VMFUNC %d->%d left domain %d installed", from, idx, in)
		}
	}
	last := func(kind uint64, to, from DomainID) {
		t.Helper()
		evs := w.transitions()
		ev := evs[len(evs)-1]
		if ev.Size != kind || ev.Domain != uint64(to) || ev.Aux != uint64(from) {
			t.Fatalf("KTransition %v, want kind %d into %d from %d", ev, kind, to, from)
		}
	}

	hop(dom0, e)
	if err := m.FastSwitch(0, dom0); err != nil {
		t.Fatal(err)
	}
	last(trace.TransFast, dom0, e)

	hop(dom0, e)
	if err := m.Call(0, p); err != nil {
		t.Fatal(err)
	}
	last(trace.TransCall, p, e)

	// A mediated call into e, which hops to p before the return.
	w.program(p)
	if err := m.Launch(dom0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Call(0, e); err != nil {
		t.Fatal(err)
	}
	if res, err := m.RunCore(0, 2); err != nil || res.Domain != p {
		t.Fatalf("callee's VMFUNC: %+v, %v; want domain %d installed", res, err, p)
	}
	if err := m.Return(0); err != nil {
		t.Fatal(err)
	}
	last(trace.TransReturn, dom0, p)
}
