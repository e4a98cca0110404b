package tyche_test

import (
	"io"
	"testing"

	tyche "github.com/tyche-sim/tyche"
	"github.com/tyche-sim/tyche/internal/baseline"
	"github.com/tyche-sim/tyche/internal/bench"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

// Every figure/claim experiment is exposed as a benchmark: one
// iteration regenerates the experiment's full table and re-evaluates
// its shape checks (see EXPERIMENTS.md). Run a single one with e.g.
//
//	go test -bench=BenchmarkExperimentF2 -benchmem
func runExperiment(b *testing.B, id string) {
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(bench.Config{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if failed := res.Failed(); len(failed) != 0 {
			b.Fatalf("%s shape checks failed: %+v", id, failed)
		}
		res.Render(io.Discard)
	}
}

func BenchmarkExperimentF1(b *testing.B)  { runExperiment(b, "F1") }
func BenchmarkExperimentF2(b *testing.B)  { runExperiment(b, "F2") }
func BenchmarkExperimentF3(b *testing.B)  { runExperiment(b, "F3") }
func BenchmarkExperimentF4(b *testing.B)  { runExperiment(b, "F4") }
func BenchmarkExperimentC1(b *testing.B)  { runExperiment(b, "C1") }
func BenchmarkExperimentC2(b *testing.B)  { runExperiment(b, "C2") }
func BenchmarkExperimentC3(b *testing.B)  { runExperiment(b, "C3") }
func BenchmarkExperimentC4(b *testing.B)  { runExperiment(b, "C4") }
func BenchmarkExperimentC5(b *testing.B)  { runExperiment(b, "C5") }
func BenchmarkExperimentC6(b *testing.B)  { runExperiment(b, "C6") }
func BenchmarkExperimentC7(b *testing.B)  { runExperiment(b, "C7") }
func BenchmarkExperimentC8(b *testing.B)  { runExperiment(b, "C8") }
func BenchmarkExperimentC9(b *testing.B)  { runExperiment(b, "C9") }
func BenchmarkExperimentC10(b *testing.B) { runExperiment(b, "C10") }
func BenchmarkExperimentC11(b *testing.B) { runExperiment(b, "C11") }
func BenchmarkExperimentC12(b *testing.B) { runExperiment(b, "C12") }

// --- Micro-benchmarks for the headline mechanisms. Each reports the
// simulated hardware cost in cycles/op alongside Go wall time.

func serviceImage() *tyche.Image {
	a := tyche.NewAsm()
	a.Movi(3, 2)
	a.Add(1, 2, 3)
	a.Movi(0, 3) // CallReturn
	a.Vmcall()
	a.Hlt()
	return tyche.NewProgram("svc", a.MustAssemble(0))
}

// BenchmarkFastSwitch measures the VMFUNC-style fast domain transition
// (C2's headline row; paper: ~100 cycles).
func BenchmarkFastSwitch(b *testing.B) {
	p, err := tyche.NewPlatform(tyche.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opts := tyche.DefaultLoadOptions()
	opts.Cores = []tyche.CoreID{0}
	opts.FastPathCore = 0
	dom, err := p.Dom0.Load(serviceImage(), opts)
	if err != nil {
		b.Fatal(err)
	}
	start := p.Cycles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Monitor.FastSwitch(0, dom.ID()); err != nil {
			b.Fatal(err)
		}
		if err := p.Monitor.FastSwitch(0, tyche.InitialDomain); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(p.Cycles()-start)/float64(2*b.N), "cycles/switch")
}

// BenchmarkMediatedCall measures a full monitor-mediated call+return
// into an enclave (two VM exit/entry pairs plus the service body).
func BenchmarkMediatedCall(b *testing.B) {
	p, err := tyche.NewPlatform(tyche.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opts := tyche.DefaultLoadOptions()
	opts.Cores = []tyche.CoreID{0}
	dom, err := p.Dom0.NewEnclave(serviceImage(), opts)
	if err != nil {
		b.Fatal(err)
	}
	start := p.Cycles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dom.Invoke(0, 10000, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(p.Cycles()-start)/float64(b.N), "cycles/call")
}

// BenchmarkMediatedCallPMP is the same round trip on the PMP backend
// (per-transition register-file reprogramming).
func BenchmarkMediatedCallPMP(b *testing.B) {
	p, err := tyche.NewPlatform(tyche.Options{Backend: tyche.BackendPMP})
	if err != nil {
		b.Fatal(err)
	}
	opts := tyche.DefaultLoadOptions()
	opts.Cores = []tyche.CoreID{0}
	dom, err := p.Dom0.NewEnclave(serviceImage(), opts)
	if err != nil {
		b.Fatal(err)
	}
	start := p.Cycles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dom.Invoke(0, 10000, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(p.Cycles()-start)/float64(b.N), "cycles/call")
}

// BenchmarkSGXRoundTrip is the baseline enclave world switch.
func BenchmarkSGXRoundTrip(b *testing.B) {
	m, err := hw.NewMachine(hw.Config{MemBytes: 8 << 20, NumCores: 1, IOMMUAllowByDefault: true})
	if err != nil {
		b.Fatal(err)
	}
	sgx := baseline.NewSGX(m, 0)
	proc, err := sgx.NewProcess(phys.MakeRegion(1<<20, 64*phys.PageSize))
	if err != nil {
		b.Fatal(err)
	}
	e, err := proc.CreateEnclave(phys.MakeRegion(1<<20, 4*phys.PageSize), 1<<20, false)
	if err != nil {
		b.Fatal(err)
	}
	start := m.Clock.Cycles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EEnter(m.Cores[0])
		e.EExit(m.Cores[0])
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Clock.Cycles()-start)/float64(b.N), "cycles/roundtrip")
}

// BenchmarkShareRevoke measures one capability share+revoke through the
// monitor (C3's single-op row), including hardware resync.
func BenchmarkShareRevoke(b *testing.B) {
	p, err := tyche.NewPlatform(tyche.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opts := tyche.DefaultLoadOptions()
	opts.Cores = []tyche.CoreID{1}
	opts.Seal = false
	dom, err := p.Dom0.Load(serviceImage(), opts)
	if err != nil {
		b.Fatal(err)
	}
	region, err := p.Dom0.Alloc(1)
	if err != nil {
		b.Fatal(err)
	}
	var heapNode cap.NodeID
	for _, n := range p.Monitor.OwnerNodes(tyche.InitialDomain) {
		if n.Resource.Kind == cap.ResMemory && n.Resource.Mem.ContainsRegion(region) {
			heapNode = n.ID
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := p.Monitor.Share(tyche.InitialDomain, heapNode, dom.ID(),
			cap.MemResource(region), tyche.MemRW, tyche.CleanZero)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Monitor.Revoke(tyche.InitialDomain, id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnclaveCreateDestroy measures the full enclave lifecycle:
// load, grant, measure, seal, kill (with obliterating cleanup).
func BenchmarkEnclaveCreateDestroy(b *testing.B) {
	p, err := tyche.NewPlatform(tyche.Options{})
	if err != nil {
		b.Fatal(err)
	}
	img := serviceImage()
	opts := tyche.DefaultLoadOptions()
	opts.Cores = []tyche.CoreID{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dom, err := p.Dom0.NewEnclave(img, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := dom.Kill(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttest measures report generation + verification (C7).
func BenchmarkAttest(b *testing.B) {
	p, err := tyche.NewPlatform(tyche.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opts := tyche.DefaultLoadOptions()
	opts.Cores = []tyche.CoreID{1}
	dom, err := p.Dom0.NewEnclave(serviceImage(), opts)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := p.VerifySession([]byte("b"))
	if err != nil {
		b.Fatal(err)
	}
	nonce := []byte("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := dom.Attest(nonce)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.VerifyDomain(rep, nonce); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefCounts measures the Figure-4 reference-count sweep over a
// populated capability space.
func BenchmarkRefCounts(b *testing.B) {
	p, err := tyche.NewPlatform(tyche.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opts := tyche.DefaultLoadOptions()
	opts.Cores = []tyche.CoreID{1}
	opts.Seal = false
	for i := 0; i < 8; i++ {
		if _, err := p.Dom0.Load(serviceImage(), opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rcs := p.Monitor.RefCounts(); len(rcs) == 0 {
			b.Fatal("empty refcount map")
		}
	}
}

// BenchmarkGuestExecution measures raw interpreted execution throughput
// (instructions retired per second) under full enforcement.
func BenchmarkGuestExecution(b *testing.B) {
	p, err := tyche.NewPlatform(tyche.Options{})
	if err != nil {
		b.Fatal(err)
	}
	// A counting loop: 2 instructions per iteration, 1000 iterations
	// (2,003 instructions with the two movi and the hlt).
	a := tyche.NewAsm()
	a.Movi(1, 0)
	a.Movi(2, 1000)
	a.Label("loop")
	a.Addi(1, 1, 1)
	a.Jlt(1, 2, "loop")
	a.Hlt()
	entry := tyche.Addr(8 * tyche.PageSize)
	code := a.MustAssemble(entry)
	if err := p.Monitor.CopyInto(tyche.InitialDomain, entry, code); err != nil {
		b.Fatal(err)
	}
	cpu := p.Machine.Core(0)
	var retired uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.PC = entry
		cpu.ClearHalt()
		res, err := p.Monitor.RunCore(0, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		retired += uint64(res.Steps)
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "instr/s")
	}
}

func BenchmarkExperimentC13(b *testing.B) { runExperiment(b, "C13") }
func BenchmarkExperimentC14(b *testing.B) { runExperiment(b, "C14") }
