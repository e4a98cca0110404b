package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/fault"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
)

// TestLockOrderStress is the deadlock oracle for the fine-grained
// monitor: it drives every lock class at once and relies on -race plus
// forward progress (the test completing) plus the trace checker to
// prove the documented lock order holds under fire.
//
// Concurrently it runs:
//   - six Go-level workers, each looping a Grant→sub-Share→Revoke→
//     Revoke chain between randomly paired domains (seeded rand, so a
//     failure replays) — reader pins, revMu, per-domain locks and
//     the capability-space lock in every pairing order;
//   - guest VMCall share/revoke rings on two cores — the same paths
//     entered from RunCore with no Go-level locks held;
//   - a reader thread hammering the lock-free snapshot paths (Stats,
//     Domains, RefCounts, LineageTree, Attest);
//   - a fault injector that machine-checks the victim's core mid-run,
//     forcing containFault's kill (scrub, owner-revoke, shootdowns)
//     to cut across all of the above;
//   - a spurious device interrupt exercising IRQ routing's read path.
//
// The trace oracle then checks the merged history: dead-domain
// silence, shootdown-ack completeness per operation frame, scrub
// before kill, and event counts equal to Monitor.Stats().
func TestLockOrderStress(t *testing.T) {
	const (
		cores     = 4
		pool      = 6 // Go-level worker domains, randomly paired
		ringCores = 2 // guest cores running VMCall rings
	)
	iters := 40
	ringIters := 24
	if testing.Short() {
		iters, ringIters = 8, 8
	}

	mach, err := hw.NewMachine(hw.Config{
		MemBytes: 8 << 20, NumCores: cores, PMPEntries: 16,
		IOMMUAllowByDefault: true,
		Devices:             []hw.DeviceConfig{{Name: "gpu0", Class: hw.DevAccelerator}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rot, err := tpm.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Boot(BootConfig{Machine: mach, TPM: rot, Backend: BackendVTX})
	if err != nil {
		t.Fatal(err)
	}
	ck := attachChecker(t, m)
	node := dom0MemNode(t, m)
	coreNodes := map[phys.CoreID]cap.NodeID{}
	for _, n := range m.OwnerNodes(InitialDomain) {
		if n.Resource.Kind == cap.ResCore {
			coreNodes[n.Resource.Core] = n.ID
		}
	}

	// The victim spins on core 1 until the injected machine check; the
	// survivor workload occupies core 0 and must finish correctly.
	victim := buildVictim(t, m)
	launchSurvivor(t, m)
	if err := m.Launch(victim, 1); err != nil {
		t.Fatal(err)
	}

	// Guest rings on cores 2 and 3: each domain loops CallShare of its
	// scratch page to the other, then CallRevoke.
	ringProg := func(base phys.Addr) []byte {
		a := hw.NewAsm()
		a.Movi(12, 1)
		a.Label("loop")
		a.Mov(1, 6)
		a.Mov(2, 7)
		a.Mov(3, 8)
		a.Mov(4, 9)
		a.Mov(5, 11)
		a.Movi(0, uint32(CallShare))
		a.Vmcall()
		a.Jnz(0, "fail")
		a.Movi(0, uint32(CallRevoke))
		a.Vmcall()
		a.Jnz(0, "fail")
		a.Sub(10, 10, 12)
		a.Jnz(10, "loop")
		a.Hlt()
		a.Label("fail")
		a.Movi(15, 0xdead)
		a.Hlt()
		return a.MustAssemble(base)
	}
	type ringDom struct {
		dom     DomainID
		scratch phys.Region
		node    cap.NodeID
	}
	var ring [ringCores]ringDom
	for i := 0; i < ringCores; i++ {
		core := phys.CoreID(2 + i)
		dom, err := m.CreateDomain(InitialDomain, fmt.Sprintf("ring%d", i))
		if err != nil {
			t.Fatal(err)
		}
		codeAt := phys.Addr(uint64(80+4*i) * pg)
		scratch := phys.MakeRegion(codeAt+pg, pg)
		if err := m.CopyInto(InitialDomain, codeAt, ringProg(codeAt)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Grant(InitialDomain, node, dom, cap.MemResource(phys.MakeRegion(codeAt, pg)), cap.MemRWX, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		sn, err := m.Grant(InitialDomain, node, dom, cap.MemResource(scratch),
			cap.MemRW|cap.RightShare|cap.RightGrant, cap.CleanNone)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Share(InitialDomain, coreNodes[core], dom, cap.CoreResource(core), cap.RightRun, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		if err := m.SetEntry(InitialDomain, dom, codeAt); err != nil {
			t.Fatal(err)
		}
		ring[i] = ringDom{dom: dom, scratch: scratch, node: sn}
	}
	for i := 0; i < ringCores; i++ {
		core := phys.CoreID(2 + i)
		if err := m.Launch(ring[i].dom, core); err != nil {
			t.Fatal(err)
		}
		c := mach.Core(core)
		c.Regs[6] = uint64(ring[i].node)
		c.Regs[7] = uint64(ring[(i+1)%ringCores].dom)
		c.Regs[8] = uint64(ring[i].scratch.Start)
		c.Regs[9] = ring[i].scratch.Size()
		c.Regs[10] = uint64(ringIters)
		c.Regs[11] = uint64(cap.MemRW) | uint64(cap.CleanFlushTLB)<<16
	}

	// Pool of randomly-paired worker domains for the Go-level chains.
	var doms [pool]DomainID
	for i := range doms {
		dom, err := m.CreateDomain(InitialDomain, fmt.Sprintf("pair%d", i))
		if err != nil {
			t.Fatal(err)
		}
		doms[i] = dom
	}

	// Machine check on the victim's core, plus a phantom interrupt to
	// drag IRQ routing into the race.
	in := fault.NewInjector(
		fault.Fault{Kind: fault.MachineCheck, Core: 1, After: 200},
		fault.Fault{Kind: fault.SpuriousIRQ, Device: 0, Vector: 7, After: 3},
	)
	in.Arm(mach, nil)

	var wg sync.WaitGroup
	errs := make(chan error, pool)
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(0x10ec + w)))
			region := memRes(uint64(160+w), 1)
			for n := 0; n < iters; n++ {
				a := rng.Intn(pool)
				b := rng.Intn(pool - 1)
				if b >= a {
					b++
				}
				gid, err := m.Grant(InitialDomain, node, doms[a], region,
					cap.MemRW|cap.RightShare, cap.CleanFlushTLB)
				if err != nil {
					errs <- fmt.Errorf("worker %d grant: %w", w, err)
					return
				}
				sid, err := m.Share(doms[a], gid, doms[b], region, cap.MemRW, cap.CleanFlushTLB)
				if err != nil {
					errs <- fmt.Errorf("worker %d share: %w", w, err)
					return
				}
				if err := m.Revoke(doms[a], sid); err != nil {
					errs <- fmt.Errorf("worker %d revoke share: %w", w, err)
					return
				}
				if err := m.Revoke(InitialDomain, gid); err != nil {
					errs <- fmt.Errorf("worker %d revoke grant: %w", w, err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		nonce := []byte("lock-order-stress")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				m.Stats()
				m.Domains()
				m.RefCounts()
				m.CapGeneration()
				if i%16 == 0 {
					m.LineageTree()
					if _, err := m.Attest(InitialDomain, nonce); err != nil {
						t.Errorf("attest dom0: %v", err)
						return
					}
				}
			}
		}
	}()

	results, err := m.RunCores(400_000)
	wg.Wait()
	close(stop)
	rwg.Wait()
	close(errs)
	if err != nil {
		t.Fatalf("RunCores: %v", err)
	}
	for e := range errs {
		t.Fatal(e)
	}

	// The victim was machine-checked and contained; the survivor and
	// both ring cores finished their programs.
	if results[1].Trap.Kind != hw.TrapMachineCheck {
		t.Fatalf("victim trap = %v, want machine-check", results[1].Trap)
	}
	if !in.Exhausted() {
		t.Fatalf("fault schedule did not fire: %v", in.Fired())
	}
	checkContained(t, m, victim, results)
	for i := 0; i < ringCores; i++ {
		core := phys.CoreID(2 + i)
		c := mach.Core(core)
		if results[core].Trap.Kind != hw.TrapHalt || c.Regs[10] != 0 || c.Regs[15] == 0xdead {
			t.Fatalf("ring core %d: trap=%v r0=%d r10=%d r15=%#x",
				core, results[core].Trap, c.Regs[0], c.Regs[10], c.Regs[15])
		}
	}

	// Every hammered region is exclusive to dom0 again.
	for _, rc := range m.RefCounts() {
		for w := 0; w < pool; w++ {
			r := phys.MakeRegion(phys.Addr(uint64(160+w)*pg), pg)
			if rc.Region.Overlaps(r) && rc.Count != 1 {
				t.Fatalf("worker region %v refcount = %d after stress", rc.Region, rc.Count)
			}
		}
		for i := 0; i < ringCores; i++ {
			if rc.Region.Overlaps(ring[i].scratch) && rc.Count != 1 {
				t.Fatalf("ring scratch %v refcount = %d after stress", rc.Region, rc.Count)
			}
		}
	}
	all := append([]DomainID{InitialDomain, victim}, doms[:]...)
	for i := 0; i < ringCores; i++ {
		all = append(all, ring[i].dom)
	}
	checkIsolationInvariants(t, m, all)
	assertTraceClean(t, m, ck)
}
