// tyche-sim boots the simulated machine under the isolation monitor,
// runs a small confidential-service scenario, and dumps the machine's
// isolation state: domains, resources, reference counts, and monitor
// statistics. With -emit it writes an attestation bundle that
// tyche-verify can check on another machine.
//
// With -faultseed or -faultschedule it additionally runs the fault
// containment demo: a sacrificial enclave is launched on core 1, a
// deterministic fault schedule is injected into the simulated hardware,
// and the monitor's containment path (kill, scrub, reclaim) is shown.
// The exact run replays from the printed schedule alone.
//
// With -domains N it runs the multi-tenant scheduling demo: N tenant
// domains are time-multiplexed over the worker cores by the preemptive
// scheduler (internal/sched), half of them yielding cooperatively, and
// the dispatch statistics plus the deterministic schedule hash are
// printed.
//
// With -batched it runs the batched-ABI demo: dom0 drives a
// submission/completion ring through a share/revoke batch, showing one
// doorbell per flush and the batch's TLB shootdowns coalesced into a
// single cross-core round.
//
// With -fleet N it runs the datacenter fleet demo instead: N simulated
// machines under one control plane serve a load-balanced confidential
// workload, a tenant is live-migrated between nodes over an attested
// channel, a node is machine-checked mid-serving, and every node's
// hash-chained runtime-verification digests are audited centrally.
//
// Usage:
//
//	tyche-sim
//	tyche-sim -backend pmp -mem 64 -cores 8
//	tyche-sim -emit evidence.json
//	tyche-sim -faultseed 7
//	tyche-sim -faultschedule mc1@128
//	tyche-sim -domains 12
//	tyche-sim -batched
//	tyche-sim -fleet 4
//	tyche-sim -trace trace.json
//
// With -trace the whole run is recorded by the cycle-stamped monitor
// tracer, audited by the online invariant checker, and written out in
// Chrome trace-event format (load in chrome://tracing or Perfetto).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	tyche "github.com/tyche-sim/tyche"
	"github.com/tyche-sim/tyche/internal/attest"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/fault"
	"github.com/tyche-sim/tyche/internal/fleet"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/sched"
	"github.com/tyche-sim/tyche/internal/trace"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

func main() {
	var (
		backend   = flag.String("backend", "vtx", "enforcement backend: vtx or pmp")
		memMiB    = flag.Uint64("mem", 32, "physical memory in MiB")
		cores     = flag.Int("cores", 4, "CPU cores")
		emit      = flag.String("emit", "", "write an attestation bundle to this file")
		faultSeed = flag.Int64("faultseed", 0, "derive a deterministic fault schedule from this seed and run the containment demo")
		faultSpec = flag.String("faultschedule", "", "explicit fault schedule (e.g. mc1@128,stall1@64); overrides -faultseed")
		domains   = flag.Int("domains", 0, "run the multi-tenant scheduling demo with this many tenant domains time-multiplexed over the worker cores")
		batched   = flag.Bool("batched", false, "run the batched-ABI demo: a submission ring carrying a share/revoke batch with one doorbell per flush and coalesced shootdowns")
		fleetN    = flag.Int("fleet", 0, "run the datacenter fleet demo with this many simulated machines under one control plane")
		tracePath = flag.String("trace", "", "record the run and write a Chrome trace-event file here")
	)
	flag.Parse()
	if *fleetN > 0 {
		if err := fleetDemo(*fleetN, core.BackendKind(*backend)); err != nil {
			fmt.Fprintln(os.Stderr, "tyche-sim:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*backend, *memMiB, *cores, *emit, *faultSeed, *faultSpec, *domains, *batched, *tracePath); err != nil {
		fmt.Fprintln(os.Stderr, "tyche-sim:", err)
		os.Exit(1)
	}
}

func run(backend string, memMiB uint64, cores int, emit string, faultSeed int64, faultSpec string, domains int, batched bool, tracePath string) error {
	p, err := tyche.NewPlatform(tyche.Options{
		MemBytes: memMiB << 20,
		Cores:    cores,
		Backend:  core.BackendKind(backend),
	})
	if err != nil {
		return err
	}
	var tracer *trace.Tracer
	var checker *check.Checker
	if tracePath != "" {
		mach := p.Monitor.Machine()
		tracer = mach.NewTracer(1 << 15)
		checker = check.New()
		tracer.Attach(checker)
		mach.SetTracer(tracer)
	}
	fmt.Println(p)
	fmt.Printf("monitor measured into TPM PCR17; attestation key bound via quote\n\n")

	// A confidential adder service: sealed enclave, exclusive memory.
	a := tyche.NewAsm()
	a.Movi(3, 2)
	a.Add(1, 2, 3)
	a.Movi(0, 3) // CallReturn
	a.Vmcall()
	a.Hlt()
	img := tyche.NewProgram("adder-enclave", a.MustAssemble(0))
	opts := tyche.DefaultLoadOptions()
	opts.Cores = []tyche.CoreID{0}
	enclave, err := p.Dom0.NewEnclave(img, opts)
	if err != nil {
		return err
	}
	got, err := enclave.Invoke(0, 10000, 40)
	if err != nil {
		return err
	}
	fmt.Printf("enclave %d (measurement %v) computed 40+2 = %d under full isolation\n",
		enclave.ID(), enclave.Measurement(), got)

	// The privileged domain cannot reach it.
	text, _ := enclave.SegmentRegion(".text")
	if _, err := p.Monitor.CopyFrom(tyche.InitialDomain, text.Start, 8); err != nil {
		fmt.Printf("dom0 read of enclave text: DENIED (%v)\n\n", text)
	} else {
		return fmt.Errorf("isolation failure: dom0 read enclave memory")
	}

	// Dump domains.
	fmt.Println("DOMAINS")
	fmt.Printf("  %-4s %-16s %-8s %-9s %-10s %s\n", "id", "name", "state", "mem(KiB)", "cores", "devices")
	for _, id := range p.Monitor.Domains() {
		d, err := p.Monitor.Domain(id)
		if err != nil {
			return err
		}
		recs, err := p.Monitor.Enumerate(id)
		if err != nil {
			return err
		}
		var kib uint64
		var cs, ds []string
		for _, r := range recs {
			switch r.Resource.Kind {
			case cap.ResMemory:
				kib += r.Resource.Mem.Size() / 1024
			case cap.ResCore:
				cs = append(cs, r.Resource.Core.String())
			case cap.ResDevice:
				ds = append(ds, r.Resource.Device.String())
			}
		}
		fmt.Printf("  %-4d %-16s %-8s %-9d %-10s %s\n", id, d.Name(), d.State(),
			kib, strings.Join(cs, ","), strings.Join(ds, ","))
	}

	// Reference-count map (Figure 4 view).
	fmt.Println("\nMEMORY REFERENCE COUNTS")
	for _, rc := range p.Monitor.RefCounts() {
		fmt.Printf("  %s\n", rc)
	}

	// Capability lineage (who derived what from whom).
	fmt.Println("\nCAPABILITY LINEAGE")
	for _, line := range strings.Split(strings.TrimRight(p.Monitor.LineageTree(), "\n"), "\n") {
		fmt.Println(" ", line)
	}

	// Monitor statistics.
	st := p.Monitor.Stats()
	fmt.Printf("\nMONITOR STATS  transitions=%d fast=%d vmexits=%d capops=%d revocations=%d attests=%d denied=%d\n",
		st.Transitions, st.FastSwitches, st.VMExits, st.CapOps, st.Revocations, st.Attests, st.DeniedOps)
	fmt.Printf("CYCLES ELAPSED %d\n", p.Cycles())

	if emit != "" {
		bootNonce := []byte("tyche-sim-boot")
		quote, err := p.Monitor.BootQuote(bootNonce)
		if err != nil {
			return err
		}
		nonce := []byte("tyche-sim-domain")
		rep, err := enclave.Attest(nonce)
		if err != nil {
			return err
		}
		meas, err := img.Measurement(enclave.Base())
		if err != nil {
			return err
		}
		b := &attest.Bundle{
			EndorsementKey:      p.TPM.EndorsementKey(),
			MonitorIdentity:     p.Monitor.Identity(),
			BootNonce:           bootNonce,
			Quote:               quote,
			DomainNonce:         nonce,
			Report:              rep,
			ExpectedMeasurement: &meas,
		}
		if err := b.Save(emit); err != nil {
			return err
		}
		fmt.Printf("\nattestation bundle written to %s (verify with tyche-verify)\n", emit)
	}
	if faultSeed != 0 || faultSpec != "" {
		if err := faultDemo(p, faultSeed, faultSpec); err != nil {
			return err
		}
	}
	if domains > 0 {
		if err := schedDemo(p, domains); err != nil {
			return err
		}
	}
	if batched {
		if err := batchedDemo(p); err != nil {
			return err
		}
	}
	if tracer != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := trace.WriteChromeTrace(f, tracer.Events()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nTRACE  %d events recorded (%d beyond ring capacity) -> %s (chrome://tracing)\n",
			tracer.Len(), tracer.Dropped(), tracePath)
		if err := checker.Err(); err != nil {
			return fmt.Errorf("online invariant checker: %w", err)
		}
		fmt.Println("online invariant checker: every recorded monitor operation satisfied its invariants")
	}
	return nil
}

// fleetDemo boots n simulated machines under one control plane and
// walks the whole fleet story: attested placement behind a load
// balancer, serving, live migration over an attested channel, a node
// kill mid-serving with automatic re-placement, and the central audit
// of every node's hash-chained runtime-verification digests.
func fleetDemo(n int, backend core.BackendKind) error {
	if n < 2 {
		return fmt.Errorf("fleet demo needs at least 2 nodes")
	}
	f, err := fleet.New(fleet.Config{Nodes: n, CoresPerNode: 3, MemBytes: 16 << 20, Backend: backend, Spin: 50})
	if err != nil {
		return err
	}
	replicas := 2
	if n < replicas {
		replicas = n
	}
	fmt.Printf("FLEET DEMO  %d nodes x 3 cores, 2 services x %d replicas, every placement attested\n", n, replicas)
	if err := f.Deploy(fleet.ServiceSpec{Name: "alpha", Delta: 100}, replicas); err != nil {
		return err
	}
	if err := f.Deploy(fleet.ServiceSpec{Name: "beta", Delta: 9000}, replicas); err != nil {
		return err
	}
	for _, svc := range []string{"alpha", "beta"} {
		for _, pl := range f.LB().Placements(svc) {
			fmt.Printf("  placed %-5s on %s as domain %d (measurement verified against the node's TPM chain)\n",
				svc, f.Nodes[pl.Node].Name, pl.Dom)
		}
	}
	stats, err := f.Serve([]string{"alpha", "beta"}, 400, 4)
	if err != nil {
		return err
	}
	fmt.Printf("  served %d load-balanced requests, every reply carrying its tenant's transform\n", stats.Requests)

	pl := f.LB().Placements("alpha")[0]
	to := -1
	hosts := f.LB().ReplicaNodes("alpha")
	for i := range f.Nodes {
		if i != pl.Node && !hosts[i] {
			to = i
			break
		}
	}
	if to >= 0 {
		if err := f.Migrate("alpha", pl.Node, to, nil); err != nil {
			return err
		}
		fmt.Printf("  live-migrated alpha %s -> %s over the attested channel (re-attested on arrival, crypto-erased on departure), blackout %v\n",
			f.Nodes[pl.Node].Name, f.Nodes[to].Name, time.Duration(f.Blackouts()[0]))
	}

	victim := 0
	for i := range f.Nodes {
		if f.LB().NodeCount(i) > 0 {
			victim = i
			break
		}
	}
	f.ArmKill(victim, 2000)
	stats, err = f.Serve([]string{"alpha", "beta"}, 400, 4)
	if err != nil {
		return err
	}
	fmt.Printf("  machine-checked %s mid-serving: %d/400 requests completed (%d retried), domains re-placed on survivors\n",
		f.Nodes[victim].Name, stats.Requests, stats.Retries)

	audits, err := f.Audit()
	if err != nil {
		return err
	}
	clean := 0
	for _, a := range audits {
		if a.SelfErr == nil && len(a.Flags) == 0 {
			clean++
		} else {
			fmt.Printf("  AUDIT FLAG %s: self=%v flags=%v\n", a.Node, a.SelfErr, a.Flags)
		}
	}
	fmt.Printf("  fleet verification: %d/%d node digest chains verified centrally, all verdicts clean\n", clean, len(audits))
	if clean != len(audits) {
		return fmt.Errorf("fleet audit flagged %d node(s)", len(audits)-clean)
	}
	return nil
}

// batchedDemo exercises the asynchronous batched ABI from dom0's
// client: a submission ring takes a mixed batch (log + TLB-cleanup
// shares), one doorbell drains it, the minted capabilities are revoked
// in a second batch whose shootdowns coalesce into a single cross-core
// round, and the ring counters are printed against what the trap-per-op
// path would have cost.
func batchedDemo(p *tyche.Platform) error {
	cl := p.Dom0
	fmt.Printf("\nBATCHED ABI DEMO  submission ring, one doorbell per batch\n")
	lo := tyche.DefaultLoadOptions()
	lo.Seal = false
	a := tyche.NewAsm()
	a.Hlt()
	peer, err := cl.Load(tyche.NewProgram("ring-peer", a.MustAssemble(0)), lo)
	if err != nil {
		return err
	}
	const shares = 4
	region, err := cl.Alloc(shares)
	if err != nil {
		return err
	}
	r, err := cl.NewRing(8)
	if err != nil {
		return err
	}
	before := p.Monitor.Stats()

	// Batch 1: a log line plus `shares` TLB-cleanup delegations.
	if err := r.Enqueue(core.CallLog, 0xb47c); err != nil {
		return err
	}
	rightsWord := uint64(cap.MemRW) | uint64(cap.CleanFlushTLB)<<16
	for i := uint64(0); i < shares; i++ {
		if err := r.Enqueue(core.CallShare, uint64(cl.HeapNode()), uint64(peer.ID()),
			uint64(region.Start)+i*phys.PageSize, phys.PageSize, rightsWord); err != nil {
			return err
		}
	}
	n1, err := r.Flush()
	if err != nil {
		return err
	}
	cs, err := r.Reap()
	if err != nil {
		return err
	}

	// Batch 2: revoke every capability batch 1 minted — the shootdowns
	// these owe coalesce into one cross-core round.
	for _, c := range cs[1:] {
		if c.Status != core.StatusOK {
			return fmt.Errorf("share completion status %d", c.Status)
		}
		if err := r.Enqueue(core.CallRevoke, c.Result); err != nil {
			return err
		}
	}
	n2, err := r.Flush()
	if err != nil {
		return err
	}
	st := p.Monitor.Stats()
	fmt.Printf("  batch 1: %d descriptors (1 log + %d shares), one CallRingFlush doorbell\n", n1, shares)
	fmt.Printf("  batch 2: %d revocations, one doorbell, shootdowns coalesced\n", n2)
	fmt.Printf("  ring counters: ops=%d flushes=%d shootdown-rounds=%d coalesced=%d\n",
		st.RingOps-before.RingOps, st.RingFlushes-before.RingFlushes,
		st.RingShootdowns-before.RingShootdowns, st.RingOpsCoalesced-before.RingOpsCoalesced)
	fmt.Printf("  trap-per-op would have cost %d monitor entries and %d shootdown rounds; the ring cost 2 doorbells and %d round(s)\n",
		n1+n2, n2, st.RingShootdowns-before.RingShootdowns)
	return nil
}

// schedDemo time-multiplexes `domains` tenant domains over every core
// but dom0's core 0: odd tenants run a pure compute loop, even ones
// yield cooperatively each iteration. The schedule is a pure function
// of the seed, so the printed hash replays bit-identically.
func schedDemo(p *tyche.Platform, domains int) error {
	mach := p.Monitor.Machine()
	if len(mach.Cores) < 2 {
		return fmt.Errorf("scheduling demo needs at least 2 cores (dom0 keeps core 0)")
	}
	var workers []tyche.CoreID
	for i := 1; i < len(mach.Cores); i++ {
		workers = append(workers, tyche.CoreID(i))
	}
	const seed = 1
	q := sched.New(p.Monitor, sched.Policy{Quantum: 4096, Seed: seed}, workers)
	fmt.Printf("\nSCHEDULING DEMO  %d tenant domains over %d worker core(s), quantum 4096, seed %d\n",
		domains, len(workers), seed)
	prog := func(yield bool) func(base phys.Addr) *tyche.Asm {
		return func(base phys.Addr) *tyche.Asm {
			a := tyche.NewAsm()
			a.Movi(10, 3000)
			a.Movi(12, 1)
			a.Label("loop")
			if yield {
				a.Movi(0, uint32(core.CallYield))
				a.Vmcall()
			}
			a.Sub(10, 10, 12)
			a.Jnz(10, "loop")
			a.Hlt()
			return a
		}
	}
	for i := 0; i < domains; i++ {
		img, err := p.Dom0.BuildAt(fmt.Sprintf("tenant%d", i), prog(i%2 == 0))
		if err != nil {
			return err
		}
		lo := tyche.DefaultLoadOptions()
		lo.Cores = workers
		lo.Seal = false
		dom, err := p.Dom0.Load(img, lo)
		if err != nil {
			return err
		}
		if err := q.Add(dom.ID()); err != nil {
			return err
		}
	}
	if _, err := q.Run(8_000_000); err != nil {
		return err
	}
	st := q.Counters()
	fmt.Printf("  completed=%d dispatches=%d preemptions=%d yields=%d steals=%d dropped=%d max_queue=%d\n",
		st.Completed, st.Dispatches, st.Preemptions, st.Yields,
		st.Steals, st.Dropped, st.MaxQueueDepth)
	fmt.Printf("  p99 transition-to-dispatch latency %d cycles over %d dispatch records\n",
		q.LatencyP99(), len(q.Records()))
	fmt.Printf("  schedule hash %#x (deterministic: same seed and arrival order replay this exact schedule)\n", q.Hash())
	if st.Completed != uint64(domains) {
		return fmt.Errorf("only %d of %d tenants completed", st.Completed, domains)
	}
	return nil
}

// faultDemo launches a sacrificial enclave on core 1, injects a
// deterministic fault schedule, and reports the monitor's containment:
// the victim is destroyed, its exclusive memory scrubbed and reclaimed
// by dom0, and the rest of the system keeps running.
func faultDemo(p *tyche.Platform, seed int64, spec string) error {
	mach := p.Monitor.Machine()
	if len(mach.Cores) < 2 {
		return fmt.Errorf("fault demo needs at least 2 cores")
	}
	var faults []fault.Fault
	var err error
	if spec != "" {
		if faults, err = fault.ParseSchedule(spec); err != nil {
			return err
		}
	} else {
		// Core faults only, aimed at core 1 where the victim runs.
		faults = fault.FromSeed(seed, 2, 0, 3)
	}
	fmt.Printf("\nFAULT INJECTION  schedule=%s\n", fault.FormatSchedule(faults))

	// The victim: an endless store loop over its own data page,
	// assembled against its final load address (two-pass, absolute
	// jump target).
	prog := func(base phys.Addr) *tyche.Asm {
		a := tyche.NewAsm()
		a.Movi(2, 0xAB)
		a.Label("loop")
		a.St(1, 0, 2)
		a.Jmp("loop")
		return a
	}
	img, err := p.Dom0.BuildAt("victim", prog,
		func(img *tyche.Image) { img.WithBSS(".data", phys.PageSize) })
	if err != nil {
		return err
	}
	lo := tyche.DefaultLoadOptions()
	lo.Cores = []tyche.CoreID{1}
	dom, err := p.Dom0.Load(img, lo)
	if err != nil {
		return err
	}
	data, _ := dom.SegmentRegion(".data")
	if err := dom.Launch(1); err != nil {
		return err
	}
	mach.Core(1).Regs[1] = uint64(data.Start)

	in := fault.NewInjector(faults...)
	in.Arm(mach, p.TPM)
	res, err := p.Monitor.RunCore(1, 500_000)
	if err != nil {
		return err
	}
	fmt.Printf("  victim domain %d running on core1: trap %v\n", dom.ID(), res.Trap)
	if res.Trap.Kind != hw.TrapMachineCheck {
		fmt.Println("  no core fault fired within the budget; nothing to contain")
		return nil
	}
	d, err := p.Monitor.Domain(dom.ID())
	if err != nil {
		return err
	}
	st := p.Monitor.Stats()
	fmt.Printf("  containment: victim state=%v  machine_checks=%d forced_kills=%d pages_scrubbed=%d cores_parked=%d\n",
		d.State(), st.MachineChecks, st.ForcedKills, st.PagesScrubbed, st.CoresParked)
	buf, err := p.Monitor.CopyFrom(tyche.InitialDomain, data.Start, 16)
	if err != nil {
		return fmt.Errorf("reclaimed memory not readable by dom0: %w", err)
	}
	zero := true
	for _, b := range buf {
		if b != 0 {
			zero = false
		}
	}
	fmt.Printf("  victim data page reclaimed by dom0, scrubbed=%v\n", zero)
	var fired []fault.Fault
	for _, fr := range in.Fired() {
		fired = append(fired, fr.Fault)
	}
	fmt.Printf("  replay this exact run: tyche-sim -faultschedule %s\n", fault.FormatSchedule(fired))
	return nil
}
