package rv

import (
	"strings"
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
	if svc.Err() != nil {
		t.Fatalf("Err after Finalize: %v", svc.Err())
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
	if svc.Sampled() {
		t.Fatal("exact-mode service reports sampled")
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

// TestServiceSampledMode pins the sampling plumbing: Attach installs
// the 1-in-N regime on the tracer and the service reports it.
func TestServiceSampledMode(t *testing.T) {
	mach, mon := bootPair(t)
	svc, err := Attach(mach, mon, Options{Node: "sampled-node", SampleN: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !svc.Sampled() {
		t.Fatal("SampleN=4 service not in sampled mode")
	}
	if got := svc.Tracer().SampleN(); got != 4 {
		t.Fatalf("tracer SampleN = %d, want 4", got)
	}
	d, err := mon.CreateDomain(core.InitialDomain, "tenant")
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.ForceKill(d); err != nil {
		t.Fatal(err)
	}
	if err := svc.Finalize(); err != nil {
		t.Fatalf("sampled clean run flagged: %v", err)
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
// two-ring round (fanned out when the host has the threads) plus a
// shared-grace kill storm must verify clean on-node, and
// the shipped digests must carry the drain-frame tally to the remote
// verifier so it reconciles like every other structural count.
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
