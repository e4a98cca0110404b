// Package bench regenerates every figure and claim of the paper's
// evaluation as executable experiments (see DESIGN.md's experiment
// index). The paper is a HotOS vision paper: Figures 1-4 are conceptual
// and the quantitative content lives in prose claims, so each figure is
// reproduced as a checked executable scenario and each claim as a
// parameter-sweep measurement. Every experiment prints a table and
// reports named metrics; its gates are a table of rows next to its
// registration, and one evaluator turns those rows and the metrics into
// its checks. EXPERIMENTS.md's gate blocks are rendered from the same
// rows over BENCH.json, and a test holds the two byte-equal.
package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/image"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
	"github.com/tyche-sim/tyche/internal/trace"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

// Config tunes an experiment run. Every world an experiment boots
// carries the cycle-stamped tracer and the online invariant
// checker from boot; there is no other run mode.
type Config struct {
	// Backend selects the enforcement backend where the experiment does
	// not itself sweep backends: vtx (the default when empty) or pmp.
	Backend core.BackendKind
	// Quick shrinks sweeps for use under `go test`.
	Quick bool
	// Seed drives randomized workloads deterministically.
	Seed int64

	// log collects the checker of every world the run boots; the
	// registered Run sets it.
	log *worldLog
}

// ErrUnknownBackend is RunExperiments' refusal of a Config.Backend other
// than vtx or pmp.
var ErrUnknownBackend = errors.New("bench: unknown backend")

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
	// Metrics carries the named scalars (cycle counts, counts, 0/1
	// outcomes) the gate rows read, for BENCH.json too.
	Metrics map[string]float64 `json:",omitempty"`
	// Sweeps names the tags of each sweep the run reported, in run
	// order; a gate row naming "{sweep}" is evaluated at each of them.
	Sweeps map[string][]string `json:",omitempty"`
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

func (r *Result) row(cells ...string) { r.Rows = append(r.Rows, cells) }

func (r *Result) metric(name string, v float64) { r.Metrics[name] = v }

// sweep records that the run measured point tag of the named sweep.
func (r *Result) sweep(name, tag string) { r.Sweeps[name] = append(r.Sweeps[name], tag) }

// incomplete reports tag's unmet completion conditions: their count for
// the "-complete" row to read, their reasons as notes.
func (r *Result) incomplete(tag string, why []string) {
	r.metric(tag+"_incomplete", float64(len(why)))
	for _, s := range why {
		r.note("%s: %s", tag, s)
	}
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// bit is a 0/1 metric value.
func bit(ok bool) float64 { return count(ok) }

// count is how many of oks hold.
func count(oks ...bool) float64 {
	n := 0.0
	for _, ok := range oks {
		if ok {
			n++
		}
	}
	return n
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
		fmt.Fprintf(w, "  check [%s] %s: %s\n", boolCellWord(c.OK, "PASS", "FAIL"), c.Name, c.Detail)
	}
	fmt.Fprintln(w)
}

// --- gate tables -----------------------------------------------------

// Gate is one row of an experiment's gate table: the check it produces,
// the value it reads — a metric, or "a / b", the ratio of two — the
// bound that value must satisfy, and the claim it tests. Consecutive
// rows with one check name are one check, holding when every row holds.
// "{sweep}" in a check name makes one check per tag the run reported for
// that sweep, the value read at each; "{sweep}" in the value alone makes
// the row hold only if it holds at every tag.
type Gate struct {
	Check string
	Value string
	Bound Bound
	Claim string
}

// Bound is a gate's relation and bound: how it reads, and the values it
// admits.
type Bound struct {
	text  string
	admit func(float64) bool
}

func eq(b float64) Bound { return Bound{"== " + fmtNum(b), func(v float64) bool { return v == b }} }
func le(b float64) Bound { return Bound{"<= " + fmtNum(b), func(v float64) bool { return v <= b }} }
func ge(b float64) Bound { return Bound{">= " + fmtNum(b), func(v float64) bool { return v >= b }} }
func lt(b float64) Bound { return Bound{"< " + fmtNum(b), func(v float64) bool { return v < b }} }
func gt(b float64) Bound { return Bound{"> " + fmtNum(b), func(v float64) bool { return v > b }} }

func within(lo, hi float64) Bound {
	return Bound{fmt.Sprintf("in [%s, %s]", fmtNum(lo), fmtNum(hi)), func(v float64) bool { return v >= lo && v <= hi }}
}

func (b Bound) String() string { return b.text }

// fmtNum prints a metric or a bound: integers exactly, other values to
// four significant digits (one decimal from 1000 up).
func fmtNum(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case math.Abs(v) >= 1000:
		return strconv.FormatFloat(v, 'f', 1, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// sweepOf is the sweep a check name or value names as "{sweep}", or "".
func sweepOf(s string) string {
	_, rest, ok := strings.Cut(s, "{")
	name, _, _ := strings.Cut(rest, "}")
	if !ok {
		return ""
	}
	return name
}

// value reads the row's value at a sweep tag: the metric, or the ratio,
// with the expression as read. ok is false when a metric is missing or
// a divisor is zero.
func (g Gate) value(m map[string]float64, tag string) (v float64, expr string, ok bool) {
	sw := sweepOf(g.Value)
	at := strings.ReplaceAll(g.Value, "{"+sw+"}", tag)
	an, bn, ratio := strings.Cut(at, " / ")
	a, okA := m[an]
	b, okB := m[bn]
	switch {
	case !ratio && !okA:
		return 0, an + " not reported", false
	case !ratio:
		return a, an + " = " + fmtNum(a), true
	case !okA || !okB:
		return 0, at + " not reported", false
	case b == 0:
		return 0, at + " = " + fmtNum(a) + " / 0", false
	}
	return a / b, fmt.Sprintf("%s = %s / %s = %s", at, fmtNum(a), fmtNum(b), fmtNum(a/b)), true
}

// read reads the row at tag ("" outside a per-tag check): at that tag,
// or, for a value naming a sweep the check name does not, at every tag
// of it. ok is false if any value could not be read.
func (g Gate) read(r *Result, tag string) (vals []float64, expr string, ok bool) {
	sw := sweepOf(g.Value)
	if sw == "" || tag != "" {
		v, expr, ok := g.value(r.Metrics, tag)
		return []float64{v}, expr, ok
	}
	tags, ok := r.Sweeps[sw]
	strs := make([]string, len(tags))
	for i, t := range tags {
		v, _, okT := g.value(r.Metrics, t)
		vals, strs[i], ok = append(vals, v), fmtNum(v), ok && okT
	}
	return vals, fmt.Sprintf("%s = [%s] over %s", g.Value, strings.Join(strs, " "), sw), ok
}

// holds evaluates the row at tag: every value it reads admitted.
func (g Gate) holds(r *Result, tag string) (bool, string) {
	vals, expr, ok := g.read(r, tag)
	for _, v := range vals {
		ok = ok && g.Bound.admit(v)
	}
	return ok, expr + ", want " + g.Bound.text
}

// recorded summarises the row's value in rec for the docs: the value,
// or its range over the sweep's tags.
func (g Gate) recorded(rec *Result) string {
	if rec == nil {
		return ""
	}
	vals, _, ok := g.read(rec, "")
	if !ok || len(vals) == 0 {
		return "missing"
	}
	lo, hi := slices.Min(vals), slices.Max(vals)
	switch {
	case len(vals) == 1:
		return fmtNum(lo)
	case lo == hi:
		return fmt.Sprintf("%s (all %d)", fmtNum(lo), len(vals))
	}
	return fmt.Sprintf("%s to %s (%d)", fmtNum(lo), fmtNum(hi), len(vals))
}

// oracleGate is the harness's row, on the table of every experiment
// whose run booted a world.
var oracleGate = Gate{"trace-oracle", "oracle_violations", eq(0), "every world of the run audits clean under the online invariant checker"}

// traceGates are the rows of the experiments that audit their worlds
// one by one (world.audit) under the "traced" sweep.
var traceGates = []Gate{
	{"{traced}-trace-clean", "{traced}_trace_violations", eq(0), "the world's full history satisfies every checked invariant"},
	{"{traced}-trace-counts", "{traced}_trace_count_mismatches", eq(0), "event-derived counts equal Stats() exactly"},
}

// Experiment is one registered experiment.
type Experiment struct {
	ID    string
	Title string
	// Paper names the paper artefact this regenerates.
	Paper string
	// Run runs the experiment and evaluates its gate table.
	Run func(cfg Config) (*Result, error)
	// Gates is the experiment's gate table.
	Gates []Gate
}

// table is e's gate table over a result's metrics: the experiment's
// rows, plus the harness's trace-oracle row when the run booted a world.
func (e Experiment) table(m map[string]float64) []Gate {
	if _, ok := m["oracle_violations"]; ok {
		return append(e.Gates[:len(e.Gates):len(e.Gates)], oracleGate)
	}
	return e.Gates
}

// evaluate is where every Check comes from: it sets res.Checks to e's
// gate table evaluated over res's metrics and sweeps.
func (e Experiment) evaluate(res *Result) {
	res.Checks = nil
	rows := e.table(res.Metrics)
	for i := 0; i < len(rows); {
		j := i + 1
		for j < len(rows) && rows[j].Check == rows[i].Check {
			j++
		}
		name, group := rows[i].Check, rows[i:j]
		i = j
		sw := sweepOf(name)
		tags, reported := res.Sweeps[sw]
		switch {
		case sw == "":
			tags = []string{""}
		case !reported:
			res.Checks = append(res.Checks, Check{Name: name, Detail: "sweep " + sw + " not reported"})
		}
		for _, tag := range tags {
			c := Check{Name: strings.ReplaceAll(name, "{"+sw+"}", tag), OK: true}
			var details []string
			for _, g := range group {
				ok, detail := g.holds(res, tag)
				c.OK = c.OK && ok
				details = append(details, detail)
			}
			c.Detail = strings.Join(details, "; ")
			res.Checks = append(res.Checks, c)
		}
	}
}

// WriteGates writes e's gate table as the markdown block EXPERIMENTS.md
// keeps for it, each row's value as recorded in rec (e's result from
// BENCH.json) and rec's pass count; with rec nil the recorded column is
// empty and the count omitted.
func (e Experiment) WriteGates(w io.Writer, rec *Result) {
	var m map[string]float64
	if rec != nil {
		m = rec.Metrics
	}
	fmt.Fprintln(w, "| check | value | gate | recorded | claim |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, g := range e.table(m) {
		fmt.Fprintf(w, "| `%s` | `%s` | %s | %s | %s |\n", g.Check, g.Value, g.Bound, g.recorded(rec), g.Claim)
	}
	if rec != nil {
		fmt.Fprintf(w, "\n%d/%d checks pass in `BENCH.json`.\n", len(rec.Checks)-len(rec.Failed()), len(rec.Checks))
	}
}

var registry []Experiment

// register adds e, whose Run fills a fresh Result with run — under a
// fresh world log — then adds the harness metric and evaluates e's gate
// table.
func register(e Experiment, run func(Config, *Result) error) {
	e.Run = func(cfg Config) (*Result, error) {
		cfg.log = &worldLog{}
		res := &Result{ID: e.ID, Title: e.Title, Metrics: map[string]float64{}, Sweeps: map[string][]string{}}
		if err := run(cfg, res); err != nil {
			return nil, err
		}
		cfg.log.report(res)
		e.evaluate(res)
		return res, nil
	}
	registry = append(registry, e)
}

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
// batch takes and nothing in the results. A backend other than vtx or
// pmp is refused before anything runs; the first experiment error
// aborts the batch.
func RunExperiments(exps []Experiment, cfg Config, workers int) ([]*Result, error) {
	switch cfg.Backend {
	case "", core.BackendVTX, core.BackendPMP:
	default:
		return nil, fmt.Errorf("%w %q (vtx or pmp)", ErrUnknownBackend, cfg.Backend)
	}
	workers = max(1, min(workers, len(exps)))
	results := make([]*Result, len(exps))
	errs := make([]error, len(exps))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				results[j], errs[j] = exps[j].Run(cfg)
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
// core 0, and ck, the online invariant checker its tracer has fed since
// boot (nil only on a bare world).
type world struct {
	mach *hw.Machine
	rot  *tpm.TPM
	mon  *core.Monitor
	cl   *libtyche.Client
	ck   *check.Checker
}

// worldLog is the checker of every world one run booted.
type worldLog struct{ cks []*check.Checker }

// report adds the metric the trace-oracle row reads, the violations
// over every world the run booted; a run that booted none reports
// nothing and gets no trace-oracle check.
func (l *worldLog) report(res *Result) {
	if len(l.cks) == 0 {
		return
	}
	n := 0
	for _, ck := range l.cks {
		ck.End()
		n += len(ck.Violations())
	}
	res.metric("oracle_violations", float64(n))
}

// audit reports what traceGates read for this world under tag: the
// checker's violations over the full run and how many event-derived
// counts differ from Stats().
func (w *world) audit(res *Result, tag string) {
	w.ck.End()
	res.sweep("traced", tag)
	res.metric(tag+"_trace_violations", float64(len(w.ck.Violations())))
	res.metric(tag+"_trace_count_mismatches", float64(countMismatches(w.ck.Counts(), w.mon.Stats(), core.Stats{})))
}

// countMismatches is how many event-derived tallies differ from the
// Stats() delta st - base (base zero: the whole history).
func countMismatches(c check.Counts, st, base core.Stats) int {
	n := 0
	for _, p := range [][2]uint64{
		{c.Transitions, st.Transitions - base.Transitions},
		{c.FastSwitches, st.FastSwitches - base.FastSwitches},
		{c.CapOps, st.CapOps - base.CapOps},
		{c.Revocations, st.Revocations - base.Revocations},
		{c.ForcedKills, st.ForcedKills - base.ForcedKills},
		{c.PagesScrubbed, st.PagesScrubbed - base.PagesScrubbed},
		{c.VMCalls + c.MachineChecks, st.VMExits - base.VMExits},
		{c.Batches, st.RingFlushes - base.RingFlushes},
		{c.BatchedOps, st.RingOps - base.RingOps},
	} {
		if p[0] != p[1] {
			n++
		}
	}
	return n
}

type worldOpts struct {
	cores      int
	memBytes   uint64
	pmpEntries int
	devices    []hw.DeviceConfig
	encryption bool
	// bare boots without the online checker, for C21 phase A, which
	// installs its own observers; every other world carries it.
	bare bool
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

// newWorld boots an experiment world. The checker attaches before
// SetTracer, so it sees KBoot, and the tracer is installed before dom0's
// first op, so checker counts and monitor statistics tally the same
// history from zero.
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
	w := &world{mach: mach, rot: rot, mon: mon, cl: libtyche.New(mon, core.InitialDomain)}
	if !o.bare {
		tr := mach.NewTracer(trace.DefaultRingEntries)
		w.ck = check.New()
		tr.Attach(w.ck)
		mach.SetTracer(tr)
		if cfg.log != nil {
			cfg.log.cks = append(cfg.log.cks, w.ck)
		}
	}
	if err := w.cl.AutoHeap(dom0ReservePages); err != nil {
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
// completion, interleaved, by one RunCores. The capability ring and the
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
// cover the multi-core phase only: launched cores in, halted cores out.
type pinnedRun struct {
	w             *world
	doms          []*libtyche.Domain
	before, after core.Stats
	cycles        uint64
	// unmet lists why the run is incomplete: a worker that did not halt
	// with its loop counter (r10) drained and no failure marker in r15,
	// or a caller's exact accounting that did not add up.
	unmet []string
}

// fail records one unmet completion condition.
func (p *pinnedRun) fail(format string, args ...any) {
	p.unmet = append(p.unmet, fmt.Sprintf(format, args...))
}

func runPinned(cfg Config, spec pinnedSpec) (*pinnedRun, error) {
	opts := defaultWorldOpts()
	opts.cores = spec.workers + 1
	w, err := newWorld(cfg, opts)
	if err != nil {
		return nil, err
	}
	p := &pinnedRun{w: w}
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
	p.before = w.mon.Stats()
	cyclesBefore := w.mach.Clock.Cycles()
	runs, err := w.mon.RunCores(spec.budget, cores...)
	if err != nil {
		return nil, err
	}
	p.cycles = w.mach.Clock.Cycles() - cyclesBefore
	p.after = w.mon.Stats()
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
