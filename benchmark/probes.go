package main

import (
	"fmt"
	"time"

	"github.com/tyche-sim/tyche/internal/backend/vtx"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/dist"
	"github.com/tyche-sim/tyche/internal/fleet"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
	"github.com/tyche-sim/tyche/internal/trace"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

// Probes time the layers no workload lets the benchmark call directly:
// each builds the smallest standalone object of the layer, shaped like
// the worlds above, and calls its public functions in a loop. They run
// the same way in every traced run.

func probes(seed int64, m metrics) error {
	for _, p := range []func(int64, metrics) error{probeHW, probeCap, probeBackend, probeTrace, probeFleet} {
		if err := p(seed, m); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	return nil
}

// timeEach runs f `rounds` times and returns the median duration of a
// round divided by perRound, in ns.
func timeEach(rounds, perRound int, f func() error) (float64, error) {
	took := make([]float64, rounds)
	for i := range took {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		took[i] = float64(time.Since(t0)) / float64(perRound)
	}
	return median(took), nil
}

// probeHW runs the tenants' spin loop on a bare machine under
// hw.AllowAll: the interpreter alone, with no monitor filter, no trace
// and no trap. The gap to hw.instr_ns is what those add per
// instruction.
func probeHW(_ int64, m metrics) error {
	mach, err := hw.NewMachine(hw.Config{MemBytes: 1 << 20, NumCores: 1})
	if err != nil {
		return err
	}
	base := phys.Addr(pg)
	a := hw.NewAsm()
	a.Label("top")
	a.Movi(4, 200)
	a.Movi(5, 1)
	a.Label("spin")
	a.Sub(4, 4, 5)
	a.Jnz(4, "spin")
	a.Jmp("top")
	if err := mach.Mem.WriteAt(base, a.MustAssemble(base)); err != nil {
		return err
	}
	cpu := mach.Cores[0]
	cpu.InstallContext(&hw.Context{Owner: 1, Filter: hw.AllowAll{}, Entry: base})
	cpu.PC = base
	const instrs = 50_000
	ns, err := timeEach(9, instrs, func() error {
		if n, trap := cpu.Run(instrs); n != instrs || trap.Kind != hw.TrapNone {
			return fmt.Errorf("bare loop ran %d of %d instructions, trap %v", n, instrs, trap)
		}
		return nil
	})
	m.set("hw.bare_instr_ns", ns)
	return err
}

// capShape is the capability tree of the cap_* worlds without a
// monitor: dom0 (owner 1) owns a 16 MiB machine, the tenant (owner 2)
// was granted a 256-page heap and the child (owner 3) a page of it.
type capShape struct {
	space *cap.Space
	heap  cap.NodeID
	pages []phys.Region
}

const (
	ownerDom0 cap.OwnerID = iota + 1
	ownerTenant
	ownerChild
)

func newCapShape(mach *hw.Machine) (*capShape, error) {
	s := cap.NewSpace()
	root, err := s.CreateRoot(ownerDom0, cap.MemResource(phys.Region{Start: 0, End: phys.Addr(mach.Mem.Size())}), cap.MemFull, cap.CleanNone)
	if err != nil {
		return nil, err
	}
	for _, c := range mach.CoreIDs() {
		if _, err := s.CreateRoot(ownerDom0, cap.CoreResource(c), cap.CoreFull, cap.CleanNone); err != nil {
			return nil, err
		}
	}
	for _, d := range mach.DeviceIDs() {
		if _, err := s.CreateRoot(ownerDom0, cap.DeviceResource(d), cap.DeviceFull, cap.CleanNone); err != nil {
			return nil, err
		}
	}
	heapRegion := phys.MakeRegion(1<<20, 256*pg)
	heap, err := s.Grant(root, ownerTenant, cap.MemResource(heapRegion), cap.MemFull, cap.CleanZero)
	if err != nil {
		return nil, err
	}
	if _, err := s.Grant(heap, ownerChild, cap.MemResource(phys.MakeRegion(heapRegion.Start, pg)), cap.MemFull, cap.CleanZero); err != nil {
		return nil, err
	}
	sh := &capShape{space: s, heap: heap}
	for i := uint64(0); i < capBatch; i++ {
		sh.pages = append(sh.pages, phys.MakeRegion(heapRegion.Start+phys.Addr((16+i)*pg), pg))
	}
	return sh, nil
}

// probeCap times the capability engine alone on one round of the cap_*
// workloads: share a batch of pages, read the tenant's grants, detach
// the batch, release and reclaim it.
func probeCap(_ int64, m metrics) error {
	mach, err := capMachine()
	if err != nil {
		return err
	}
	sh, err := newCapShape(mach)
	if err != nil {
		return err
	}
	const rounds = 200
	var share, grants, detach, release [rounds]float64
	var nodes [capBatch]cap.NodeID
	var dets [capBatch]*cap.Detached
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i, p := range sh.pages {
			if nodes[i], err = sh.space.Share(sh.heap, ownerChild, cap.MemResource(p), cap.MemRW, cap.CleanZero|cap.CleanFlushTLB); err != nil {
				return err
			}
		}
		t1 := time.Now()
		if g := sh.space.OwnerMemoryGrants(ownerChild); len(g) != capBatch+1 {
			return fmt.Errorf("child holds %d grants, want %d", len(g), capBatch+1)
		}
		t2 := time.Now()
		for i, n := range nodes {
			if dets[i], err = sh.space.Detach(n); err != nil {
				return err
			}
		}
		t3 := time.Now()
		for _, d := range dets {
			sh.space.Release(d)
			sh.space.Reclaim(d)
		}
		t4 := time.Now()
		share[r] = float64(t1.Sub(t0)) / capBatch
		grants[r] = float64(t2.Sub(t1))
		detach[r] = float64(t3.Sub(t2)) / capBatch
		release[r] = float64(t4.Sub(t3)) / capBatch
	}
	m.set("cap.share_ns", median(share[:]))
	m.set("cap.owner_grants_ns", median(grants[:]))
	m.set("cap.detach_ns", median(detach[:]))
	m.set("cap.release_ns", median(release[:]))
	m.set("cap.nodes_live", float64(sh.space.NumNodes()))
	m.set("cap.limbo_nodes", float64(sh.space.LimboNodes()))
	return nil
}

// probeBackend times the vtx backend's resynchronisation on the same
// shape: what a revoke pays after the capability engine is done.
func probeBackend(_ int64, m metrics) error {
	mach, err := capMachine()
	if err != nil {
		return err
	}
	sh, err := newCapShape(mach)
	if err != nil {
		return err
	}
	bk := vtx.New(mach, sh.space)
	for _, o := range []cap.OwnerID{ownerDom0, ownerTenant, ownerChild} {
		if err := bk.InstallDomain(o); err != nil {
			return err
		}
	}
	const rounds = 25
	tenant, err := timeEach(rounds, 1, func() error { return bk.SyncDomain(ownerTenant) })
	if err != nil {
		return err
	}
	dom0, err := timeEach(rounds, 1, func() error { return bk.SyncDomain(ownerDom0) })
	if err != nil {
		return err
	}
	device, err := timeEach(rounds, 1, func() error { return bk.SyncDevice(0) })
	if err != nil {
		return err
	}
	act := []cap.CleanupAction{{Owner: ownerChild, Resource: cap.MemResource(sh.pages[0]), Cleanup: cap.CleanZero | cap.CleanFlushTLB}}
	cleanup, err := timeEach(rounds, 1, func() error { return bk.ExecuteCleanups(act) })
	if err != nil {
		return err
	}
	m.set("backend.sync_domain_tenant_us", tenant/1e3)
	m.set("backend.sync_domain_dom0_us", dom0/1e3)
	m.set("backend.sync_device_us", device/1e3)
	m.set("backend.cleanup_us", cleanup/1e3)
	return nil
}

// probeTrace times one Tracer.Emit with the sharded checker attached,
// as runtime verification attaches it in production.
func probeTrace(_ int64, m metrics) error {
	mach, err := hw.NewMachine(hw.Config{MemBytes: 1 << 20, NumCores: 2})
	if err != nil {
		return err
	}
	tr := mach.NewTracer(0)
	sh := check.NewSharded(tr)
	tr.AttachSharded(sh)
	tr.Emit(trace.GlobalCore, trace.KBoot, 0, 0, 0, 0, 2)
	const events = 20_000
	ns, err := timeEach(9, events, func() error {
		for i := 0; i < events; i++ {
			tr.Emit(0, trace.KVMCall, 1, 1, 0, 0, 0)
		}
		sh.Merge()
		return nil
	})
	m.set("trace.emit_ns", ns)
	if err != nil {
		return err
	}
	sh.End()
	return sh.Err()
}

// probeFleet times what the fleet's control plane leans on: a digest-
// sized send over an attested channel between two nodes' agents, a TPM
// quote, and a load-balancer pick.
func probeFleet(seed int64, m metrics) error {
	f, err := fleet.New(fleet.Config{Nodes: 2, CoresPerNode: 2, Seed: seed})
	if err != nil {
		return err
	}
	a, b := f.Nodes[0], f.Nodes[1]
	epA, err := endpoint(a, b)
	if err != nil {
		return err
	}
	epB, err := endpoint(b, a)
	if err != nil {
		return err
	}
	conn, err := dist.Connect(epA, epB, &dist.Wire{})
	if err != nil {
		return err
	}
	digest := make([]byte, 1024)
	send, err := timeEach(100, 1, func() error {
		got, err := conn.Send(epA, digest)
		if err == nil && len(got) != len(digest) {
			err = fmt.Errorf("sent %d bytes, %d arrived", len(digest), len(got))
		}
		return err
	})
	if err != nil {
		return err
	}
	quote, err := timeEach(100, 1, func() error {
		_, err := a.TPM.MakeQuote([]byte("bench"), []int{tpm.PCRFirmware, tpm.PCRMonitor}, nil)
		return err
	})
	if err != nil {
		return err
	}
	lb := fleet.NewLoadBalancer()
	for node := 0; node < 2; node++ {
		lb.Register(&fleet.Placement{Service: "probe", Node: node})
	}
	const picks = 10_000
	pick, err := timeEach(9, picks, func() error {
		for i := 0; i < picks; i++ {
			if lb.Pick("probe") == nil {
				return fmt.Errorf("no placement picked")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("dist.send_digest_us", send/1e3)
	m.set("tpm.quote_us", quote/1e3)
	m.set("fleet.pick_ns", pick)
	return finishFleet(f, &run{notes: map[string]float64{}})
}
