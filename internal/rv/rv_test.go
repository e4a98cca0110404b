package rv

import (
	"strings"
	"sync"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
	"github.com/tyche-sim/tyche/internal/trace"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

// bootPair builds one machine/monitor pair for service-level tests.
func bootPair(t *testing.T) (*hw.Machine, *core.Monitor) {
	t.Helper()
	mach, err := hw.NewMachine(hw.Config{MemBytes: 8 << 20, NumCores: 2})
	if err != nil {
		t.Fatal(err)
	}
	rot, err := tpm.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := core.Boot(core.BootConfig{Machine: mach, TPM: rot})
	if err != nil {
		t.Fatal(err)
	}
	return mach, mon
}

// TestServiceCleanRun wires the full pipeline — service, digest chain,
// remote verifier — over a clean kill-with-scrub history.
func TestServiceCleanRun(t *testing.T) {
	mach, mon := bootPair(t)
	ver := check.NewRemoteVerifier("clean-node")
	svc, err := Attach(mach, mon, Options{
		Node: "clean-node",
		Ship: func(raw []byte) error { return ver.Consume(raw) },
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := mon.CreateDomain(core.InitialDomain, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.ForceKill(d); err != nil {
		t.Fatal(err)
	}
	if err := svc.Finalize(); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}
	if err := svc.Finalize(); err != nil {
		t.Fatalf("second Finalize: %v", err)
	}
	if svc.Shipped() == 0 {
		t.Fatal("no digests shipped")
	}
	if flags := ver.Finalize(); len(flags) != 0 {
		t.Fatalf("verifier flagged a clean node: %q", flags)
	}
	if ver.Digests() != svc.Shipped() {
		t.Fatalf("verifier consumed %d digests, node shipped %d", ver.Digests(), svc.Shipped())
	}
}

// TestServiceReportsSeededViolation seeds a dead-domain use; the node
// must flag itself AND the shipped digests must carry the verdict to
// the remote verifier, whose independent replay agrees (no divergence).
func TestServiceReportsSeededViolation(t *testing.T) {
	mach, mon := bootPair(t)
	ver := check.NewRemoteVerifier("bad-node")
	svc, err := Attach(mach, mon, Options{
		Node: "bad-node",
		Ship: func(raw []byte) error { return ver.Consume(raw) },
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := mon.CreateDomain(core.InitialDomain, "victim")
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.ForceKill(d); err != nil {
		t.Fatal(err)
	}
	mach.Trace(trace.GlobalCore, trace.KShare, uint64(d), 0, 1, 0x1000, 4096)
	verr := svc.Finalize()
	if verr == nil || !strings.Contains(verr.Error(), "dead domain") {
		t.Fatalf("Finalize = %v, want dead-domain violation", verr)
	}
	reported, diverged := false, false
	for _, f := range ver.Finalize() {
		if strings.Contains(f, "reported violation") && strings.Contains(f, "dead domain") {
			reported = true
		}
		if strings.Contains(f, "diverges") || strings.Contains(f, "chain") {
			diverged = true
		}
	}
	if !reported {
		t.Fatal("verifier never saw the node's violation verdict")
	}
	if diverged {
		t.Fatalf("verifier disagreed with an honestly-reporting node: %q", ver.Flags())
	}
}

// TestShipErrorLatched pins transport-failure reporting: a Ship error
// must surface through Err, not vanish.
func TestShipErrorLatched(t *testing.T) {
	mach, mon := bootPair(t)
	svc, err := Attach(mach, mon, Options{
		Node: "cut-node",
		Ship: func([]byte) error { return errShipCut },
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := mon.CreateDomain(core.InitialDomain, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.ForceKill(d); err != nil {
		t.Fatal(err)
	}
	if err := svc.Finalize(); err != errShipCut {
		t.Fatalf("Finalize = %v, want the latched ship error", err)
	}
}

// TestServiceParallelDrain audits the drain round end to end: a
// two-ring round plus a kill storm must verify clean
// on-node, and the drain frames must reach the remote verifier in the
// digests' audit stream and replay clean there.
func TestServiceParallelDrain(t *testing.T) {
	mach, mon := bootPair(t)
	ver := check.NewRemoteVerifier("drain-node")
	svc, err := Attach(mach, mon, Options{
		Node: "drain-node",
		Ship: func(raw []byte) error { return ver.Consume(raw) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var memNode cap.NodeID
	for _, n := range mon.OwnerNodes(core.InitialDomain) {
		if n.Resource.Kind == cap.ResMemory {
			memNode = n.ID
			break
		}
	}
	pageRes := func(page, pages uint64) cap.Resource {
		return cap.MemResource(phys.MakeRegion(phys.Addr(page*phys.PageSize), pages*phys.PageSize))
	}
	const entries = 16
	var doms []core.DomainID
	for i := 0; i < 2; i++ {
		d, err := mon.CreateDomain(core.InitialDomain, "tenant")
		if err != nil {
			t.Fatal(err)
		}
		page := uint64(400 + 2*i)
		if _, err := mon.Grant(core.InitialDomain, memNode, d, pageRes(page, 1), cap.MemRW, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		base := phys.Addr(page * phys.PageSize)
		if err := mon.RingSetup(d, base, entries); err != nil {
			t.Fatal(err)
		}
		var tail uint64
		enqueue := func(desc ...uint64) {
			off := base + phys.Addr(core.RingSQOff(entries, tail))
			for w := 0; w < 6; w++ {
				var v uint64
				if w < len(desc) {
					v = desc[w]
				}
				if err := mach.Mem.Write64(off+phys.Addr(8*w), v); err != nil {
					t.Fatal(err)
				}
			}
			tail++
			if err := mach.Mem.Write64(base+core.RingOffSQTail, tail); err != nil {
				t.Fatal(err)
			}
		}
		for j := 0; j < 2; j++ {
			id, err := mon.Share(core.InitialDomain, memNode, d, pageRes(uint64(500+i*4+j), 1), cap.MemRW, cap.CleanFlushTLB)
			if err != nil {
				t.Fatal(err)
			}
			enqueue(core.CallRevoke, uint64(id))
		}
		enqueue(core.CallSelfID)
		doms = append(doms, d)
	}
	if n := mon.DrainRings(); n != 6 {
		t.Fatalf("DrainRings = %d, want 6", n)
	}
	if _, err := mon.ForceKillAll(doms...); err != nil {
		t.Fatal(err)
	}
	if err := svc.Finalize(); err != nil {
		t.Fatalf("parallel-drain run flagged: %v", err)
	}
	if got := svc.Checker().Counts().Drains; got != 1 {
		t.Fatalf("checker counted %d drain frames, want the one round", got)
	}
	if svc.Shipped() == 0 {
		t.Fatal("no digests shipped")
	}
	if flags := ver.Finalize(); len(flags) != 0 {
		t.Fatalf("verifier flagged a clean parallel-drain node: %q", flags)
	}
}

var errShipCut = &shipCutError{}

type shipCutError struct{}

func (*shipCutError) Error() string { return "digest channel cut" }

// checkpoint fires the monitor's quiescent-point hook: a RunCores round
// over no cores.
func checkpoint(t *testing.T, mon *core.Monitor) {
	t.Helper()
	if _, err := mon.RunCores(1); err != nil {
		t.Fatal(err)
	}
}

// killedDomain creates a domain and kills it.
func killedDomain(t *testing.T, mon *core.Monitor) core.DomainID {
	t.Helper()
	d, err := mon.CreateDomain(core.InitialDomain, "victim")
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.ForceKill(d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestServiceReportsEagerViolationInInterval: a dead-domain transition
// the checker flags on delivery reaches the remote verifier with the
// next checkpoint's digest, not only when the node finalises.
func TestServiceReportsEagerViolationInInterval(t *testing.T) {
	mach, mon := bootPair(t)
	ver := check.NewRemoteVerifier("eager-node")
	svc, err := Attach(mach, mon, Options{
		Node: "eager-node",
		Ship: func(raw []byte) error { return ver.Consume(raw) },
	})
	if err != nil {
		t.Fatal(err)
	}
	d := killedDomain(t, mon)
	checkpoint(t, mon)
	if flags := ver.Flags(); len(flags) != 0 {
		t.Fatalf("clean interval flagged: %q", flags)
	}
	mach.Trace(0, trace.KTransition, uint64(d), 0, 0, 0, trace.TransCall)
	checkpoint(t, mon)
	flags := ver.Flags()
	if len(flags) != 1 || !strings.Contains(flags[0], "reported violation: dead domain") {
		t.Fatalf("flags after the next checkpoint = %q, want the dead transition reported", flags)
	}
	if err := svc.Finalize(); err == nil {
		t.Fatal("dead transition accepted")
	}
	if flags := ver.Finalize(); len(flags) != 1 {
		t.Fatalf("flags after Finalize = %q, want the one report", flags)
	}
}

// TestServiceShipsEveryViolationOnce: every violation the node records —
// a dead-domain transition and a dead-domain share flagged on delivery,
// one only the end of the trace reveals — is carried by exactly one
// shipped digest, the first two by their interval's.
func TestServiceShipsEveryViolationOnce(t *testing.T) {
	mach, mon := bootPair(t)
	ver := check.NewRemoteVerifier("busy-node")
	shipped := map[string]int{}
	svc, err := Attach(mach, mon, Options{
		Node: "busy-node",
		Ship: func(raw []byte) error {
			d, err := check.DecodeDigest(raw)
			if err != nil {
				return err
			}
			for _, msg := range d.Violations {
				shipped[msg]++
			}
			return ver.Consume(raw)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := killedDomain(t, mon)
	checkpoint(t, mon)
	mach.Trace(0, trace.KTransition, uint64(d), 0, 0, 0, trace.TransCall)     // not audited
	mach.Trace(trace.GlobalCore, trace.KShare, uint64(d), 0, 1, 0x1000, 4096) // audited
	checkpoint(t, mon)
	if len(shipped) != 2 {
		t.Fatalf("interval digests carried %v, want the transition and the share", shipped)
	}
	mach.Trace(trace.GlobalCore, trace.KOpBegin, 0, trace.OpRevoke, 1<<40, 0, 0) // never closed
	checkpoint(t, mon)
	if svc.Finalize() == nil {
		t.Fatal("violating run accepted")
	}
	recorded := map[string]int{}
	for _, v := range svc.Checker().Violations() {
		recorded[v.Msg]++
	}
	for _, want := range []string{"successful transition", "successful share", "still open at end of trace"} {
		found := false
		for msg := range recorded {
			found = found || strings.Contains(msg, want)
		}
		if !found {
			t.Fatalf("run recorded no %q violation: %v", want, recorded)
		}
	}
	if len(shipped) != len(recorded) {
		t.Fatalf("shipped %v, recorded %v", shipped, recorded)
	}
	for msg, n := range recorded {
		if shipped[msg] != n {
			t.Fatalf("%q: recorded %d times, shipped %d", msg, n, shipped[msg])
		}
	}
	for _, f := range ver.Finalize() {
		if !strings.Contains(f, "reported violation") {
			t.Fatalf("verifier disagreed with an honestly-reporting node: %q", f)
		}
	}
}

// TestCheckedShareRevokeAllocations: runtime verification adds no
// allocation to a Share + Revoke pair, counting the merge that resolves
// the pair's events — the pair allocates as much on a machine with the
// service attached as on one without. The engine recycles its frames
// and shootdown records, the checker and the merge reuse their buffers,
// and the trace rings are small enough to reach capacity in the
// warm-up.
func TestCheckedShareRevokeAllocations(t *testing.T) {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		if p.Put(new(int)); p.Get() == nil {
			t.Skip("sync.Pool drops items (race detector): the backends' scratch reallocates at random")
		}
	}
	pair := func(attach bool) float64 {
		mach, mon := bootPair(t)
		merge := func() {}
		if attach {
			tr := mach.NewTracer(64)
			svc, err := Attach(mach, mon, Options{Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			mach.SetTracer(tr)
			merge = svc.checkpoint
			defer func() {
				if err := svc.Finalize(); err != nil {
					t.Fatal(err)
				}
			}()
		}
		var memNode cap.NodeID
		for _, n := range mon.OwnerNodes(core.InitialDomain) {
			if n.Resource.Kind == cap.ResMemory {
				memNode = n.ID
			}
		}
		page := func(p uint64) cap.Resource {
			return cap.MemResource(phys.MakeRegion(phys.Addr(p*phys.PageSize), phys.PageSize))
		}
		tenant, err := mon.CreateDomain(core.InitialDomain, "tenant")
		if err != nil {
			t.Fatal(err)
		}
		child, err := mon.CreateDomain(tenant, "child")
		if err != nil {
			t.Fatal(err)
		}
		heap, err := mon.Grant(core.InitialDomain, memNode, tenant,
			cap.MemResource(phys.MakeRegion(phys.Addr(256*phys.PageSize), 64*phys.PageSize)), cap.MemFull, cap.CleanZero)
		if err != nil {
			t.Fatal(err)
		}
		round := func() {
			id, err := mon.Share(tenant, heap, child, page(300), cap.MemRW, cap.CleanZero|cap.CleanFlushTLB)
			if err == nil {
				err = mon.Revoke(tenant, id)
			}
			if err != nil {
				t.Fatal(err)
			}
			merge()
		}
		for i := 0; i < 64; i++ {
			round()
		}
		return testing.AllocsPerRun(100, round)
	}
	bare, checked := pair(false), pair(true)
	if checked != bare {
		t.Fatalf("a Share + Revoke pair allocates %.0f objects checked, %.0f unchecked: the checker adds %.0f",
			checked, bare, checked-bare)
	}
	t.Logf("a Share + Revoke pair allocates %.0f objects, checked or not", bare)
}
