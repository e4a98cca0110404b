// Package bench regenerates every figure and claim of the paper's
// evaluation as executable experiments (see DESIGN.md's experiment
// index). The paper is a HotOS vision paper: Figures 1-4 are conceptual
// and the quantitative content lives in prose claims, so each figure is
// reproduced as a checked executable scenario and each claim as a
// parameter-sweep measurement. Every experiment prints a table and
// returns machine-checkable shape assertions; EXPERIMENTS.md records
// paper-vs-measured from exactly this output.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/image"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/rv"
	"github.com/tyche-sim/tyche/internal/tpm"
	"github.com/tyche-sim/tyche/internal/trace"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

// Config tunes an experiment run.
type Config struct {
	// Backend selects the enforcement backend where the experiment does
	// not itself sweep backends (vtx default).
	Backend core.BackendKind
	// Quick shrinks sweeps for use under `go test`.
	Quick bool
	// Seed drives randomized workloads deterministically.
	Seed int64
	// Trace installs a cycle-stamped tracer with the online invariant
	// checker on every experiment world. Experiments that audit their
	// own worlds (world.traceClean) append exact count reconciliation;
	// the harness additionally appends one trace-oracle check per
	// experiment asserting no world saw a violation.
	Trace bool
	// Verify attaches the always-on runtime-verification service
	// (internal/rv: sharded incremental checker merged at the monitor's
	// quiescent points) to every experiment world. Composes with Trace —
	// both sinks then feed off one tracer.
	Verify bool

	// audit, when non-nil, collects every traced world so the harness
	// can render the checker's verdict even for experiments without
	// explicit trace checks. Wired by RunExperiments.
	audit *traceAudit
}

// verdicter is any attached trace oracle the audit can finalise: the
// serial online checker and the sharded runtime-verification service
// both satisfy it.
type verdicter interface{ Err() error }

// traceAudit accumulates the checkers of the traced worlds one
// experiment boots.
type traceAudit struct {
	mu  sync.Mutex
	cks []verdicter
}

func (a *traceAudit) add(ck verdicter) {
	a.mu.Lock()
	a.cks = append(a.cks, ck)
	a.mu.Unlock()
}

// appendCheck adds one harness-level check over every traced world the
// experiment booted. Exact count reconciliation stays with the
// experiments' own traceClean calls; an invariant violation in any
// world fails the experiment here regardless of whether it audits
// itself.
func (a *traceAudit) appendCheck(res *Result) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.cks) == 0 {
		return
	}
	ok := true
	detail := fmt.Sprintf("%d traced world(s)", len(a.cks))
	for i, ck := range a.cks {
		if err := ck.Err(); err != nil {
			ok = false
			detail = fmt.Sprintf("world %d: %v", i, err)
			break
		}
	}
	res.check("trace-oracle", ok, "online invariant checker clean across %s", detail)
}

// Check is one shape assertion an experiment evaluated: the property
// that must hold for the reproduction to count (who wins, where the
// crossover falls), as opposed to absolute numbers.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Result is an experiment's structured outcome.
type Result struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	Checks  []Check
	// Metrics carries machine-readable scalars (cycle counts, hit
	// rates) for BENCH.json; experiments fill it via metric().
	Metrics map[string]float64 `json:",omitempty"`
}

// Failed returns the failed checks.
func (r *Result) Failed() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

func (r *Result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *Result) row(cells ...string) { r.Rows = append(r.Rows, cells) }

func (r *Result) metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render pretty-prints the result to w.
func (r *Result) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(r.Columns)
	sep := make([]string, len(r.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, c := range r.Checks {
		status := "PASS"
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check [%s] %s: %s\n", status, c.Name, c.Detail)
	}
	fmt.Fprintln(w)
}

// Experiment is one registered experiment.
type Experiment struct {
	ID    string
	Title string
	// Paper names the paper artefact this regenerates.
	Paper string
	Run   func(cfg Config) (*Result, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments returns all registered experiments in ID order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunExperiments runs the given experiments over a pool of `workers`
// goroutines and returns their results in input order. Experiments are
// independent (each boots its own machines) and compare only counts,
// simulated cycles and verdicts, so the pool size changes how long the
// batch takes and nothing in the results. The first experiment error
// aborts the batch.
func RunExperiments(exps []Experiment, cfg Config, workers int) ([]*Result, error) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	results := make([]*Result, len(exps))
	errs := make([]error, len(exps))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				run := cfg
				if cfg.Trace || cfg.Verify {
					run.audit = &traceAudit{}
				}
				res, err := exps[j].Run(run)
				if err != nil {
					errs[j] = err
					continue
				}
				if run.audit != nil {
					run.audit.appendCheck(res)
				}
				results[j] = res
			}
		}()
	}
	for j := range exps {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", exps[j].ID, err)
		}
	}
	return results, nil
}

// --- shared world construction --------------------------------------

// world bundles a booted machine+monitor with a dom0 client idling on
// core 0. With Config.Trace set, ck is the online invariant checker
// fed by the machine's tracer from the moment of boot (nil otherwise).
type world struct {
	mach *hw.Machine
	rot  *tpm.TPM
	mon  *core.Monitor
	cl   *libtyche.Client
	ck   *check.Checker
	// rvs is the always-on runtime-verification service (Config.Verify);
	// nil when verification is off.
	rvs *rv.Service
}

// traceClean appends the checker-oracle checks to res when the world
// is traced: no invariant violations, and event-derived counters
// reconciling exactly with the monitor's statistics.
func (w *world) traceClean(res *Result, tag string) {
	if w.ck != nil {
		err := w.ck.Err()
		res.check(tag+"-trace-clean", err == nil, "online invariant checker over the full run: %v", err)
		st := w.mon.Stats()
		c := w.ck.Counts()
		ok := countsMatch(c, st)
		res.check(tag+"-trace-counts", ok,
			"event-derived counts match Stats(): trace %+v vs stats %+v", c, st)
	}
	if w.rvs != nil {
		err := w.rvs.Err()
		res.check(tag+"-rv-clean", err == nil,
			"sharded runtime verifier over the full run: %v", err)
		st := w.mon.Stats()
		c := w.rvs.Checker().Counts()
		res.check(tag+"-rv-counts", countsMatch(c, st),
			"shard-derived counts match Stats(): trace %+v vs stats %+v", c, st)
	}
}

// countsMatch is the harness-level count reconciliation both trace
// oracles share.
func countsMatch(c check.Counts, st core.Stats) bool {
	return c.Transitions == st.Transitions && c.FastSwitches == st.FastSwitches &&
		c.CapOps == st.CapOps && c.Revocations == st.Revocations &&
		c.ForcedKills == st.ForcedKills && c.PagesScrubbed == st.PagesScrubbed &&
		c.VMCalls+c.MachineChecks == st.VMExits &&
		c.Batches == st.RingFlushes && c.BatchedOps == st.RingOps
}

// countsMatchSince reconciles a checker attached mid-run against the
// statistics delta since its attach point.
func countsMatchSince(c check.Counts, st, base core.Stats) bool {
	return c.Transitions == st.Transitions-base.Transitions &&
		c.Revocations == st.Revocations-base.Revocations &&
		c.CapOps == st.CapOps-base.CapOps &&
		c.VMCalls+c.MachineChecks == st.VMExits-base.VMExits
}

type worldOpts struct {
	cores      int
	memBytes   uint64
	pmpEntries int
	devices    []hw.DeviceConfig
	encryption bool
}

func defaultWorldOpts() worldOpts {
	return worldOpts{
		cores:    4,
		memBytes: 32 << 20,
		devices: []hw.DeviceConfig{
			{Name: "gpu0", Class: hw.DevAccelerator},
			{Name: "nic0", Class: hw.DevNIC},
		},
	}
}

// dom0ReservePages keeps the low pages for dom0's own text.
const dom0ReservePages = 16

// dom0Entry is where the idle kernel text lives.
const dom0Entry = phys.Addr(4 * phys.PageSize)

func newWorld(cfg Config, o worldOpts) (*world, error) {
	mach, err := hw.NewMachine(hw.Config{
		MemBytes:            o.memBytes,
		NumCores:            o.cores,
		PMPEntries:          o.pmpEntries,
		IOMMUAllowByDefault: true,
		Devices:             o.devices,
		MemoryEncryption:    o.encryption,
	})
	if err != nil {
		return nil, err
	}
	rot, err := tpm.New(nil)
	if err != nil {
		return nil, err
	}
	kind := cfg.Backend
	if kind == "" {
		kind = core.BackendVTX
	}
	mon, err := core.Boot(core.BootConfig{Machine: mach, TPM: rot, Backend: kind})
	if err != nil {
		return nil, err
	}
	var ck *check.Checker
	var rvs *rv.Service
	if cfg.Trace || cfg.Verify {
		// One tracer feeds every attached oracle, installed before dom0's
		// first op so checker counts and monitor statistics tally the
		// same history from zero. Sinks attach before SetTracer so all of
		// them observe KBoot.
		tr := mach.NewTracer(trace.DefaultRingEntries)
		if cfg.Trace {
			ck = check.New()
			tr.Attach(ck)
		}
		if cfg.Verify {
			svc, err := rv.Attach(mach, mon, rv.Options{Node: "bench", Tracer: tr})
			if err != nil {
				return nil, err
			}
			rvs = svc
		}
		mach.SetTracer(tr)
	}
	w := &world{mach: mach, rot: rot, mon: mon, ck: ck, rvs: rvs}
	if cfg.audit != nil {
		if ck != nil {
			cfg.audit.add(ck)
		}
		if rvs != nil {
			cfg.audit.add(rvs)
		}
	}
	cl := libtyche.New(mon, core.InitialDomain)
	w.cl = cl
	if err := cl.AutoHeap(dom0ReservePages); err != nil {
		return nil, err
	}
	idle := hw.NewAsm()
	idle.Hlt()
	if err := mon.CopyInto(core.InitialDomain, dom0Entry, idle.MustAssemble(dom0Entry)); err != nil {
		return nil, err
	}
	if err := mon.SetEntry(core.InitialDomain, core.InitialDomain, dom0Entry); err != nil {
		return nil, err
	}
	if err := mon.Launch(core.InitialDomain, 0); err != nil {
		return nil, err
	}
	if _, err := mon.RunCore(0, 10); err != nil {
		return nil, err
	}
	return w, nil
}

// loadOn is the load policy of an experiment's ordinary domains: the
// defaults (unsealed, so dom0 can keep delegating to them; obfuscating
// cleanup; no fast path), runnable on the given cores.
func loadOn(cores ...phys.CoreID) libtyche.LoadOptions {
	lo := libtyche.DefaultLoadOptions()
	lo.Cores = cores
	return lo
}

// addImage builds an image whose domain returns r2+delta via the
// monitor's return call (the standard "service domain" payload).
func addImage(name string, delta uint32) *image.Image {
	a := hw.NewAsm()
	a.Movi(3, delta)
	a.Add(1, 2, 3)
	a.Movi(0, uint32(core.CallReturn))
	a.Vmcall()
	a.Hlt()
	return image.NewProgram(name, a.MustAssemble(0))
}

// haltImage builds the minimal runnable image.
func haltImage(name string) *image.Image {
	a := hw.NewAsm()
	a.Hlt()
	return image.NewProgram(name, a.MustAssemble(0))
}

// pinnedSpec describes a worker-per-core run: `workers` guest domains,
// worker i pinned to core i+1 (dom0 idles on core 0), all driven to
// completion concurrently by one RunCores. The capability ring and the
// transition storm (C15), the batched-ABI storm (C20) and the
// dedicated-core baseline (C19) are this run with different programs.
// The func fields other than worker may be nil.
type pinnedSpec struct {
	name    string // image name prefix
	workers int
	budget  int // RunCores instruction budget per core
	// worker describes worker i. It may load helper domains and allocate
	// regions first, so their addresses are assembly-time constants.
	worker func(w *world, i int) (pinnedWorker, error)
	// regs is worker i's boot register file, poked after Launch (which
	// zeroes it) like libtyche's Invoke argument passing. It sees every
	// loaded worker, so a ring of workers can name its neighbours.
	regs func(i int, doms []*libtyche.Domain) [hw.NumRegs]uint64
	// armed runs once every core is launched, right before the counters
	// are snapshotted.
	armed func(*world)
}

// pinnedWorker is one worker's program, assembled against its load
// address, plus what it holds beyond its own image.
type pinnedWorker struct {
	gen    func(base phys.Addr) *hw.Asm
	extras []func(*image.Image)
	// grants, when non-nil, hands the loaded worker extra capabilities.
	grants func(dom *libtyche.Domain) error
}

// pinnedRun is the outcome of a pinned-worker run. Counters and cycles
// cover the concurrent phase only: launched cores in, halted cores out.
type pinnedRun struct {
	w             *world
	doms          []*libtyche.Domain
	before, after core.Stats
	cycles        uint64
	lockAcqs      uint64 // revocation-mutex acquisitions
	// complete: every worker halted with its loop counter (r10) drained
	// and no failure marker in r15. Callers clear it, with a detail,
	// when their own exact accounting does not add up.
	complete bool
	detail   string
}

// fail marks the run incomplete with the given reason.
func (p *pinnedRun) fail(format string, args ...any) {
	p.complete = false
	p.detail = " (" + fmt.Sprintf(format, args...) + ")"
}

func runPinned(cfg Config, spec pinnedSpec) (*pinnedRun, error) {
	opts := defaultWorldOpts()
	opts.cores = spec.workers + 1
	w, err := newWorld(cfg, opts)
	if err != nil {
		return nil, err
	}
	p := &pinnedRun{w: w, complete: true}
	for i := 0; i < spec.workers; i++ {
		wk, err := spec.worker(w, i)
		if err != nil {
			return nil, err
		}
		img, err := w.cl.BuildAt(fmt.Sprintf("%s%d", spec.name, i), wk.gen, wk.extras...)
		if err != nil {
			return nil, err
		}
		dom, err := w.cl.Load(img, loadOn(phys.CoreID(i+1)))
		if err != nil {
			return nil, err
		}
		if wk.grants != nil {
			if err := wk.grants(dom); err != nil {
				return nil, err
			}
		}
		p.doms = append(p.doms, dom)
	}
	cores := workerCores(spec.workers)
	for i, dom := range p.doms {
		if err := dom.Launch(cores[i]); err != nil {
			return nil, err
		}
		if spec.regs != nil {
			w.mach.Core(cores[i]).Regs = spec.regs(i, p.doms)
		}
	}
	if spec.armed != nil {
		spec.armed(w)
	}
	_, acqBefore := w.mon.LockWait()
	p.before = w.mon.Stats()
	cyclesBefore := w.mach.Clock.Cycles()
	runs, err := w.mon.RunCores(spec.budget, cores...)
	if err != nil {
		return nil, err
	}
	p.cycles = w.mach.Clock.Cycles() - cyclesBefore
	p.after = w.mon.Stats()
	_, acqAfter := w.mon.LockWait()
	p.lockAcqs = acqAfter - acqBefore
	for _, id := range cores {
		run, ok := runs[id]
		c := w.mach.Core(id)
		if !ok || run.Trap.Kind != hw.TrapHalt || c.Regs[10] != 0 || c.Regs[15] == 0xdead {
			p.fail("core %v: trap=%v r10=%d r15=%#x", id, run.Trap, c.Regs[10], c.Regs[15])
		}
	}
	return p, nil
}

// endPinnedLoop closes a pinned worker's program the way runPinned's
// verdict reads it: count r10 down by r12 (the constant 1) back to
// label and halt once drained; "fail" marks r15 and halts.
func endPinnedLoop(a *hw.Asm, label string) {
	a.Sub(10, 10, 12)
	a.Jnz(10, label)
	a.Hlt()
	a.Label("fail")
	a.Movi(15, 0xdead)
	a.Hlt()
}

// workerCores names the cores a pinned or scheduled workload runs on.
func workerCores(n int) []phys.CoreID {
	out := make([]phys.CoreID, n)
	for i := range out {
		out[i] = phys.CoreID(i + 1) // dom0 idles on core 0
	}
	return out
}

func cycles(m *hw.Machine, f func() error) (uint64, error) {
	before := m.Clock.Cycles()
	err := f()
	return m.Clock.Cycles() - before, err
}

// cyclesPer runs f n times and returns the mean cycle cost of one run.
func cyclesPer(m *hw.Machine, n int, f func() error) (uint64, error) {
	total, err := cycles(m, func() error {
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return err
			}
		}
		return nil
	})
	return total / uint64(n), err
}

func fmtU(v uint64) string { return fmt.Sprintf("%d", v) }

func fmtRatio(v, base uint64) string {
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(v)/float64(base))
}

func boolCell(ok bool) string { return boolCellWord(ok, "ok", "DENIED") }
