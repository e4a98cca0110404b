package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/sched"
	"github.com/tyche-sim/tyche/internal/trace"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

// Concurrency stress tests for the SMP monitor: many threads (Go-level
// API, and RunCore from one goroutine per core) hammering one
// capability space at once. Run them under -race; the CI race job does.
// RunCores itself steps its cores on one goroutine, and the last test
// pins that its results do not depend on the host.

// TestConcurrentAPICapabilityOps has K goroutines share+revoke disjoint
// regions of dom0 memory through the Go-level API while a reader
// goroutine continuously enumerates, and asserts the bookkeeping the
// paper's verifiers depend on comes out exact: per-region refcounts
// back to 1, no lost or phantom revocations.
func TestConcurrentAPICapabilityOps(t *testing.T) {
	m, ck := bootTracedWorld(t, BackendVTX)
	node := dom0MemNode(t, m)
	const workers = 8
	iters := 50
	if testing.Short() {
		iters = 10
	}
	statsBefore := m.Stats()

	type worker struct {
		dom    DomainID
		region phys.Region
	}
	var ws [workers]worker
	for i := range ws {
		dom, err := m.CreateDomain(InitialDomain, fmt.Sprintf("w%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = worker{dom: dom, region: phys.MakeRegion(phys.Addr(uint64(128+i)*pg), pg)}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := range ws {
		wg.Add(1)
		go func(w worker) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				id, err := m.Share(InitialDomain, node, w.dom, cap.MemResource(w.region), cap.MemRW, cap.CleanFlushTLB)
				if err != nil {
					errs <- err
					return
				}
				if err := m.Revoke(InitialDomain, id); err != nil {
					errs <- err
					return
				}
			}
		}(ws[i])
	}
	// A reader thread exercises the enumeration paths mid-flight.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m.RefCounts()
				m.Enumerate(InitialDomain)
				m.Stats()
				m.CapGeneration()
			}
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	stats := m.Stats()
	wantOps := uint64(workers * iters)
	if got := stats.Revocations - statsBefore.Revocations; got != wantOps {
		t.Fatalf("revocations = %d, want %d", got, wantOps)
	}
	if got := stats.CapOps - statsBefore.CapOps; got != 2*wantOps {
		t.Fatalf("capops = %d, want %d", got, 2*wantOps)
	}
	// Every hammered region must be exclusive to dom0 again.
	for _, rc := range m.RefCounts() {
		for _, w := range ws {
			if rc.Region.Overlaps(w.region) && rc.Count != 1 {
				t.Fatalf("region %v refcount = %d after revoke storm", rc.Region, rc.Count)
			}
		}
	}
	assertTraceClean(t, m, ck)
}

// runCoresConcurrently drives each listed core's RunCore from its own
// goroutine: the host concurrency between cores that RunCores, which
// steps its cores in turn on the caller's goroutine, never creates.
func runCoresConcurrently(m *Monitor, budget int, cores ...phys.CoreID) (map[phys.CoreID]RunResult, error) {
	results := make(map[phys.CoreID]RunResult, len(cores))
	errs := make([]error, len(cores))
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for i, c := range cores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := m.RunCore(c, budget)
			mu.Lock()
			results[c] = res
			mu.Unlock()
			errs[i] = err
		}()
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// ringWorker is one domain of a vmcallRing world.
type ringWorker struct {
	dom     DomainID
	scratch phys.Region
	node    cap.NodeID
}

// vmcallRing boots a traced machine whose every core is launched into
// its own domain looping iters times: CallShare of its private scratch
// page to the next domain in the ring, then CallRevoke.
func vmcallRing(t *testing.T, cores, iters int) (*Monitor, *check.Checker, []ringWorker) {
	t.Helper()
	m, ck := bootCoresWorld(t, cores)
	node := dom0MemNode(t, m)
	coreNodes := map[phys.CoreID]cap.NodeID{}
	for _, n := range m.OwnerNodes(InitialDomain) {
		if n.Resource.Kind == cap.ResCore {
			coreNodes[n.Resource.Core] = n.ID
		}
	}

	prog := func(base phys.Addr) []byte {
		a := hw.NewAsm()
		a.Movi(12, 1)
		a.Label("loop")
		a.Mov(1, 6)  // scratch node
		a.Mov(2, 7)  // destination domain
		a.Mov(3, 8)  // scratch start
		a.Mov(4, 9)  // scratch size
		a.Mov(5, 11) // rights | cleanup<<16
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

	ws := make([]ringWorker, cores)
	for i := 0; i < cores; i++ {
		dom, err := m.CreateDomain(InitialDomain, fmt.Sprintf("stress%d", i))
		if err != nil {
			t.Fatal(err)
		}
		codeAt := phys.Addr(uint64(64+4*i) * pg)
		scratch := phys.MakeRegion(codeAt+pg, pg)
		if err := m.CopyInto(InitialDomain, codeAt, prog(codeAt)); err != nil {
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
		if _, err := m.Share(InitialDomain, coreNodes[phys.CoreID(i)], dom, cap.CoreResource(phys.CoreID(i)), cap.RightRun, cap.CleanNone); err != nil {
			t.Fatal(err)
		}
		if err := m.SetEntry(InitialDomain, dom, codeAt); err != nil {
			t.Fatal(err)
		}
		ws[i] = ringWorker{dom: dom, scratch: scratch, node: sn}
	}
	for i := 0; i < cores; i++ {
		if err := m.Launch(ws[i].dom, phys.CoreID(i)); err != nil {
			t.Fatal(err)
		}
		c := m.Machine().Core(phys.CoreID(i))
		c.Regs[6] = uint64(ws[i].node)
		c.Regs[7] = uint64(ws[(i+1)%cores].dom)
		c.Regs[8] = uint64(ws[i].scratch.Start)
		c.Regs[9] = ws[i].scratch.Size()
		c.Regs[10] = uint64(iters)
		c.Regs[11] = uint64(cap.MemRW) | uint64(cap.CleanFlushTLB)<<16
	}
	return m, ck, ws
}

// TestConcurrentGuestVMCallStress is the guest-ABI version: four cores,
// each driven by its own goroutine, run vmcallRing's share+revoke loop —
// monitor entries from four host threads race on one space. Afterwards
// refcount and generation invariants must hold exactly.
func TestConcurrentGuestVMCallStress(t *testing.T) {
	const cores = 4
	iters := 32
	if testing.Short() {
		iters = 8
	}
	m, ck, ws := vmcallRing(t, cores, iters)
	statsBefore := m.Stats()
	genBefore := m.CapGeneration()
	runs, err := runCoresConcurrently(m, 100_000, 0, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cores; i++ {
		run := runs[phys.CoreID(i)]
		c := m.Machine().Core(phys.CoreID(i))
		if run.Trap.Kind != hw.TrapHalt || c.Regs[10] != 0 || c.Regs[15] == 0xdead {
			t.Fatalf("core %d: trap=%v r0=%d r10=%d r15=%#x", i, run.Trap, c.Regs[0], c.Regs[10], c.Regs[15])
		}
	}
	stats := m.Stats()
	wantOps := uint64(cores * iters)
	if got := stats.Revocations - statsBefore.Revocations; got != wantOps {
		t.Fatalf("revocations = %d, want %d", got, wantOps)
	}
	if got := stats.VMExits - statsBefore.VMExits; got < 2*wantOps {
		t.Fatalf("vmexits = %d, want >= %d", got, 2*wantOps)
	}
	if gen := m.CapGeneration(); gen <= genBefore {
		t.Fatalf("capability generation did not advance: %d -> %d", genBefore, gen)
	}
	for _, rc := range m.RefCounts() {
		for _, w := range ws {
			if rc.Region.Overlaps(w.scratch) && rc.Count != 1 {
				t.Fatalf("scratch %v refcount = %d after stress", rc.Region, rc.Count)
			}
		}
	}
	assertTraceClean(t, m, ck)
}

// TestRunCoresReproducible: RunCores steps its cores on the caller's
// goroutine in a fixed interleaving, so a run is a function of its
// inputs. A 4-core share+revoke ring in dedicated mode and six tenants
// scheduled over two cores each run twice at GOMAXPROCS 1 and 4, and
// every run matches the first in cycles, Stats(), per-core results,
// schedule hash and trace event stream.
func TestRunCoresReproducible(t *testing.T) {
	type fingerprint struct {
		cycles uint64
		stats  Stats
		runs   map[phys.CoreID]RunResult
		hash   uint64
		events []trace.Event
	}
	finish := func(t *testing.T, m *Monitor, runs map[phys.CoreID]RunResult, err error) fingerprint {
		if err != nil {
			t.Fatal(err)
		}
		var hash uint64
		if q := m.Scheduler(); q != nil {
			hash = q.Hash()
		}
		return fingerprint{m.Machine().Clock.Cycles(), m.Stats(), runs, hash, m.Machine().Tracer().Events()}
	}
	workloads := []struct {
		name string
		run  func(*testing.T) fingerprint
	}{
		{"dedicated-ring", func(t *testing.T) fingerprint {
			m, ck, _ := vmcallRing(t, 4, 16)
			runs, err := m.RunCores(100_000)
			assertTraceClean(t, m, ck)
			return finish(t, m, runs, err)
		}},
		{"scheduled", func(t *testing.T) fingerprint {
			m, ck := bootCoresWorld(t, 2)
			cores := []phys.CoreID{0, 1}
			m.SetSchedPolicy(&sched.Policy{Quantum: 32, Steal: true, Seed: 1})
			for i := 0; i < 6; i++ {
				if err := m.Schedule(loadTenant(t, m, "tenant", uint64(64+i), 40, i%2 == 0, cores)); err != nil {
					t.Fatal(err)
				}
			}
			runs, err := m.RunCores(100_000)
			assertTraceClean(t, m, ck)
			return finish(t, m, runs, err)
		}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var first *fingerprint
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				for i := 0; i < 2; i++ {
					got := w.run(t)
					if first == nil {
						first = &got
						continue
					}
					switch {
					case got.cycles != first.cycles:
						t.Fatalf("GOMAXPROCS=%d run %d: cycles %d, want %d", procs, i, got.cycles, first.cycles)
					case got.stats != first.stats:
						t.Fatalf("GOMAXPROCS=%d run %d: stats %+v, want %+v", procs, i, got.stats, first.stats)
					case !reflect.DeepEqual(got.runs, first.runs):
						t.Fatalf("GOMAXPROCS=%d run %d: results %+v, want %+v", procs, i, got.runs, first.runs)
					case got.hash != first.hash:
						t.Fatalf("GOMAXPROCS=%d run %d: schedule hash %#x, want %#x", procs, i, got.hash, first.hash)
					case !slices.Equal(got.events, first.events):
						t.Fatalf("GOMAXPROCS=%d run %d: trace of %d events differs from the first run's %d",
							procs, i, len(got.events), len(first.events))
					}
				}
			}
		})
	}
}
