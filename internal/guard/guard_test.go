// Package guard holds the repository's structural rules as tests: each
// one parses the tree and fails on a violation, so `go test ./...`
// enforces a rule that would otherwise be a grep in CI.
package guard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// goFile is one parsed Go file; rel is its slash-separated path from
// the repository root.
type goFile struct {
	rel  string
	fset *token.FileSet
	f    *ast.File
}

// parseTree parses every Go file under the given paths (relative to the
// repository root, walked recursively), _test.go files only when tests
// is set. The module is one build (no file carries a constraint), so a
// rule sees every file the build compiles. Hidden directories and
// nested modules (benchmark/) are not part of this module and are
// skipped.
func parseTree(t *testing.T, tests bool, paths ...string) []goFile {
	t.Helper()
	root := filepath.Join("..", "..")
	var out []goFile
	for _, p := range paths {
		start := filepath.Join(root, p)
		err := filepath.WalkDir(start, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.IsDir() && path != start {
				if _, statErr := os.Stat(filepath.Join(path, "go.mod")); statErr == nil || strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
			}
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || !tests && strings.HasSuffix(path, "_test.go") {
				return err
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			out = append(out, goFile{filepath.ToSlash(rel), fset, f})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no Go files under %v: wrong root?", paths)
	}
	return out
}

// at is the file:line of a node, for messages.
func (g goFile) at(n ast.Node) string {
	return g.rel + ":" + strconv.Itoa(g.fset.Position(n.Pos()).Line)
}

// inspect calls visit on every node of every file.
func inspect(files []goFile, visit func(g goFile, n ast.Node)) {
	for _, g := range files {
		ast.Inspect(g.f, func(n ast.Node) bool {
			if n != nil {
				visit(g, n)
			}
			return true
		})
	}
}

// selector returns "x.Name" for a selector expression on an identifier
// (a package-qualified name or a field of a named variable), else "".
func selector(n ast.Node) string {
	if s, ok := n.(*ast.SelectorExpr); ok {
		if x, ok := s.X.(*ast.Ident); ok {
			return x.Name + "." + s.Sel.Name
		}
	}
	return ""
}

// imports reports whether the file imports the package path.
func (g goFile) imports(path string) bool {
	for _, imp := range g.f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			return true
		}
	}
	return false
}

// jsonAllowed are the only non-test files that may import
// encoding/json: the Chrome trace format and the on-disk evidence
// bundle, both read by people and other tools. Every byte string that
// crosses a trust boundary uses internal/codec instead.
var jsonAllowed = map[string]bool{
	"internal/trace/chrome.go":  true,
	"internal/attest/bundle.go": true,
}

// TestOnlyAllowedFilesImportJSON parses the imports of every non-test
// Go file under internal/.
func TestOnlyAllowedFilesImportJSON(t *testing.T) {
	files := parseTree(t, false, "internal")
	if len(files) < 50 {
		t.Fatalf("parsed only %d files under internal/: wrong root?", len(files))
	}
	for _, g := range files {
		if g.imports("encoding/json") && !jsonAllowed[g.rel] {
			t.Errorf("%s imports encoding/json; trust-boundary encodings use internal/codec", g.rel)
		}
	}
}

// TestTLBHasNoMap parses internal/hw/tlb.go: the TLB is one slot array
// scanned up to its high-water mark, and no index may grow back beside
// it (ARCHITECTURE §1).
func TestTLBHasNoMap(t *testing.T) {
	inspect(parseTree(t, false, "internal/hw/tlb.go"), func(g goFile, n ast.Node) {
		if _, ok := n.(*ast.MapType); ok {
			t.Errorf("%s: map type; the TLB is one slot array", g.at(n))
		}
	})
}

// TestBenchReadsNoClock: internal/bench compares counts, simulated
// cycles and verdicts, never host time (that is benchmark/'s job), so
// no file in it, tests included, imports time.
func TestBenchReadsNoClock(t *testing.T) {
	for _, g := range parseTree(t, true, "internal/bench") {
		if g.imports("time") {
			t.Errorf("%s imports time; host time is benchmark/'s job", g.rel)
		}
	}
}

// lockFree are the trees whose objects — the monitor, the machine, the
// capability space, the backends, the tracer and checker, and the
// per-machine attachments (runtime verification, the TPM, the fault
// injector) — are used by one goroutine at a time and hold no lock.
var lockFree = []string{"internal/core", "internal/cap", "internal/backend", "internal/hw",
	"internal/trace", "internal/rv", "internal/tpm", "internal/fault"}

// heldLocks returns each import of sync or sync/atomic by a non-test
// file of files.
func heldLocks(files []goFile) (bad []string) {
	for _, g := range files {
		for _, p := range []string{"sync", "sync/atomic"} {
			if g.imports(p) {
				bad = append(bad, g.rel+": imports "+p)
			}
		}
	}
	return bad
}

// TestMonitorHoldsNoLock: no non-test file of the lock-free trees imports
// sync or sync/atomic — a backend's scratch is the backend's own, not a
// pool. The rule sees a planted mutex, a planted atomic and a planted
// sync.Pool.
func TestMonitorHoldsNoLock(t *testing.T) {
	var files []goFile
	for _, p := range lockFree {
		files = append(files, parseTree(t, false, p)...)
	}
	if bad := heldLocks(files); len(bad) > 0 {
		t.Errorf("a lock-free tree holds a lock: %v", bad)
	}
	for _, planted := range []goFile{
		plant(t, "internal/cap/planted.go", "package cap\nimport \"sync\"\nvar mu sync.RWMutex"),
		plant(t, "internal/hw/planted.go", "package hw\nimport \"sync/atomic\"\nvar n atomic.Uint64"),
		plant(t, "internal/backend/backend.go", "package backend\nimport \"sync\"\nvar scratchPool = sync.Pool{}"),
	} {
		if bad := heldLocks([]goFile{planted}); len(bad) != 1 {
			t.Errorf("a planted lock in %s went unnoticed: %v", planted.rel, bad)
		}
	}
}

// nodeSweeps are the only files that may range the capability space's
// node index: a question about every owner (the refcount sweeps, the
// tree dump). Anything about one owner walks that owner's list
// (ARCHITECTURE §7).
var nodeSweeps = map[string]bool{
	"internal/cap/refcount.go": true,
	"internal/cap/dump.go":     true,
}

// TestOnlySweepsRangeNodeIndex parses internal/cap's non-test files.
func TestOnlySweepsRangeNodeIndex(t *testing.T) {
	inspect(parseTree(t, false, "internal/cap"), func(g goFile, n ast.Node) {
		if r, ok := n.(*ast.RangeStmt); ok && selector(r.X) == "s.nodes" && !nodeSweeps[g.rel] {
			t.Errorf("%s ranges s.nodes; only the all-owner sweeps may", g.at(n))
		}
	})
}

// refCountsCallers are the only functions of internal/core that may ask
// the capability space for its machine-wide reference-count map: the
// monitor's Figure 4 export and the memory-encryption retag of the whole
// address space, both questions about every owner. A question about one
// domain — is its memory exclusive, its attested counts, what its death
// scrubs — asks a scoped sweep and costs what lies under that domain
// (ARCHITECTURE §7).
var refCountsCallers = map[string]bool{
	"RefCounts":      true,
	"syncEncryption": true,
}

// spaceRefCounts matches a call of RefCounts on a field named space.
func spaceRefCounts(n ast.Node) bool {
	c, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	s, ok := c.Fun.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != "RefCounts" {
		return false
	}
	x, ok := s.X.(*ast.SelectorExpr)
	return ok && x.Sel.Name == "space"
}

// TestOnlyAllOwnerQuestionsCallRefCounts parses internal/core's non-test
// files; the rule sees a planted per-domain caller.
func TestOnlyAllOwnerQuestionsCallRefCounts(t *testing.T) {
	check := func(files []goFile) (bad []string) {
		for fn, at := range callers(files, spaceRefCounts) {
			if !refCountsCallers[fn] {
				bad = append(bad, fn+" ("+at+")")
			}
		}
		return bad
	}
	core := parseTree(t, false, "internal/core")
	if bad := check(core); len(bad) > 0 {
		t.Errorf("internal/core builds the machine-wide reference-count map in %v; only %v may", bad, refCountsCallers)
	}
	if got := callers(core, spaceRefCounts); len(got) != len(refCountsCallers) {
		t.Errorf("space.RefCounts is called from %v, want exactly the allowed %v", got, refCountsCallers)
	}
	withPlant := append(core, plant(t, "internal/core/planted.go", `package core
func (m *Monitor) exclusive(owner cap.OwnerID) (out []phys.Region) {
	for _, rc := range m.space.RefCounts() {
		if rc.Count == 1 && rc.Owners[0] == owner {
			out = append(out, rc.Region)
		}
	}
	return out
}`))
	if bad := check(withPlant); len(bad) != 1 || !strings.HasPrefix(bad[0], "exclusive ") {
		t.Errorf("with a planted per-domain caller: found %v, want exactly the plant", bad)
	}
}

// TestOneCarveOneDerivation: the per-node region list with its Subtract
// ping-pong (effectiveRegions) lives on only as the tests' reference,
// and nothing in internal/phys sorts through reflection.
func TestOneCarveOneDerivation(t *testing.T) {
	inspect(parseTree(t, false, "internal", "cmd", "examples"), func(g goFile, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok && id.Name == "effectiveRegions" {
			t.Errorf("%s: effectiveRegions outside the tests", g.at(n))
		}
	})
	inspect(parseTree(t, true, "internal/phys"), func(g goFile, n ast.Node) {
		if selector(n) == "sort.Slice" {
			t.Errorf("%s: sort.Slice in internal/phys", g.at(n))
		}
	})
}

// TestCoreStartsNoGoroutine: RunCores steps every core on its caller's
// goroutine, and fleet.Serve runs every request on its caller's
// goroutine, so neither internal/core nor internal/fleet starts a
// goroutine or waits for one. The rule sees a planted goroutine and a
// planted WaitGroup in internal/fleet.
func TestCoreStartsNoGoroutine(t *testing.T) {
	check := func(files []goFile) (bad []string) {
		inspect(files, func(g goFile, n ast.Node) {
			if _, ok := n.(*ast.GoStmt); ok {
				bad = append(bad, g.at(n)+": go statement")
			}
			if selector(n) == "sync.WaitGroup" {
				bad = append(bad, g.at(n)+": sync.WaitGroup")
			}
		})
		return bad
	}
	files := parseTree(t, false, "internal/core", "internal/fleet")
	for _, b := range check(files) {
		t.Errorf("%s in a package that runs on its caller's goroutine", b)
	}
	planted := plant(t, "internal/fleet/planted.go", `package fleet
func fanOut(work func()) { var wg sync.WaitGroup; wg.Add(1); go func() { defer wg.Done(); work() }(); wg.Wait() }`)
	if bad := check(append(files, planted)); len(bad) != 2 {
		t.Errorf("a planted goroutine and WaitGroup in internal/fleet: found %v, want 2", bad)
	}
}

// TestFleetHoldsNoLock: a fleet is one thread's object — its calls run
// on their caller's goroutine, one at a time — so no non-test file of
// internal/fleet imports sync or sync/atomic. The rule sees a planted
// mutex.
func TestFleetHoldsNoLock(t *testing.T) {
	check := func(files []goFile) (bad []string) {
		for _, g := range files {
			if g.imports("sync") || g.imports("sync/atomic") {
				bad = append(bad, g.rel)
			}
		}
		return bad
	}
	files := parseTree(t, false, "internal/fleet")
	if bad := check(files); len(bad) > 0 {
		t.Errorf("internal/fleet imports sync or sync/atomic: %v", bad)
	}
	planted := plant(t, "internal/fleet/planted.go", `package fleet
import "sync"
var mu sync.Mutex`)
	if bad := check(append(files, planted)); len(bad) != 1 {
		t.Error("a planted mutex in internal/fleet went unnoticed")
	}
}

// gone matches the names of deleted designs, none of which may come
// back under any name: the A/B scaffolding (the big lock, its build, the
// reclaim and scrub fan-outs, the parallel ring drains), the tracer's
// compile-out tag, the cached transfer bodies, the fine-grained lock
// helpers of the capability space, the QSBR side channel, the
// transition cache, trace sampling, the digest's shard stats, the
// destructive tail's second bodies (the delegation-only resync, the
// single-victim kill paths and the second grace entry), the bench
// harness's opt-in trace audit, the monitor's run queue (its policy
// switch, the resumed-arrival path and the kill-time purge), the
// fleet's serving fan-out (the wave goroutines, their error latch and
// the node core channel), the fleet's locking (the in-flight acquire,
// the drain timeout, the pick retry's all-dead probe, the blackout
// recorder, the pair-table and control-plane locks), and the sharded
// checker — its type, the
// per-ring sink and its method, its fixed-shard constructor and replay,
// matched as whole names so that NewSharded and AttachSharded, the
// leftovers benchmark/ compiles against, stay allowed; and, as whole
// names too, the exported entry points only tests reached (the owner
// teardown beside DetachOwner, the refcount and device queries beside
// RefCounts and OwnerDevices, the PMP writes beside Replace, the op
// counter beside Generation) and those nothing called at all; and the
// monitor's host-thread machinery — the epoch engine, its reader and
// destructive entry brackets, the core, hardware, table, ring and
// drain-error locks, and the epochbug mutation; the shootdown batch
// brackets and their cached accumulator, since every operation frame
// flushes the machine's one accumulator once; and the seeded-bug build
// tags' armed constants and product hooks, since every mutant is a row
// of internal/core's mutants table, patched in by go test -overlay.
var gone = regexp.MustCompile(`biglock|BigLockBuild|SetReclaimWorkers|ScrubShards|RingParallelDrains|monLock|notrace|ErrNotCompiled|` +
	`cachedCall|cachedReturn|synchronizeAt|lockOwners|rlockOwner|rlockAll|revokeSubtree|numShards|` +
	`deferFree|deferq|minObserved|setOnline|epochMaxCores|SetTransitionCache|tcLookup|tcFill|cfgGen|overlapShards|CoreRun$|` +
	`SetSampling|SampleN|Sampleable|SampledOut|ShardStat|` +
	`syncAfterChange|destroyDomain|forceKill|synchronizeShared|traceAudit|` +
	`SetSchedPolicy|ScheduleResumed|schedPurge|PurgeDomain|SchedPurged|` +
	`serveWave|errLatch|acquireCore|releaseCore|` +
	`tryAcquire|errDrainTimeout|allDead|recordBlackout|pairMu|cpMu|` +
	`^(?:Sharded|ShardSink|ShardEvent|NewShardedN|ReplaySharded)$|` +
	`^(?:RevokeOwner|RegionRefCount|OwnerHasDevice|Ops|Program|ClearEntry|MemoryEncryptionActive|BlackoutP99)$|` +
	`^(?:Bounds|CodeRegion|Creator|DefaultConfig|Inflight|LiveNodes|Peer|WithUserSegment)$|` +
	`epochEngine|epochSlot|lockCores|unlockCores|hwMu|revMu|tabMu|ringMu|drainErrMu|EpochBugArmed|` +
	`^(?:renter|rexit|denter|dexit)$|` +
	`BeginShootdownBatch|EndShootdownBatch|endShootdownBatch|sdBatchCache|` +
	`ShootdownBugArmed|AckBugArmed|RangeBugArmed|ScrubBugArmed|DrainBugArmed|MigrateBugArmed|` +
	`shootdownSkipLast|ackDropOne|ackSwallowed|rangeSkipOne|scrubSkipFirst|departEraseElided`)

// goneFields are deleted fields of the bench Config: every experiment
// world carries the online checker, so there is no switch to turn it
// (or the rv service) on.
var goneFields = map[string]bool{"Trace": true, "Verify": true}

// goneFlags are deleted command-line flags: tyche-bench's -traced and
// -verify went with those fields.
var goneFlags = map[string]bool{`"traced"`: true, `"verify"`: true}

// buildConstrained returns the build constraint lines of files: the
// module is one build, so there should be none.
func buildConstrained(files []goFile) (bad []string) {
	for _, g := range files {
		for _, cg := range g.f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//go:build") || strings.HasPrefix(c.Text, "// +build") {
					bad = append(bad, g.at(c)+": "+c.Text)
				}
			}
		}
	}
	return bad
}

// TestDeletedNamesStayGone parses every Go file of the module, tests
// included: no file may carry a build constraint (a seeded bug is a
// mutants row, not a build tag; the rule sees a planted one), no
// identifier may match gone, nor trace.Compiled be named, nor the bench
// Config declare a gone field, nor a flag package call name a gone flag.
func TestDeletedNamesStayGone(t *testing.T) {
	files := parseTree(t, true, ".")
	if bad := buildConstrained(files); len(bad) > 0 {
		t.Errorf("the module is one build, but files carry build constraints: %v", bad)
	}
	planted := plant(t, "internal/hw/planted.go", "//go:build rangebug\n\npackage hw\n")
	if bad := buildConstrained([]goFile{planted}); len(bad) != 1 {
		t.Errorf("a planted //go:build line was seen %d times, want 1", len(bad))
	}
	isGone := map[string]bool{} // the regexp runs once per distinct name
	inspect(files, func(g goFile, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok {
			bad, seen := isGone[id.Name]
			if !seen {
				bad = gone.MatchString(id.Name)
				isGone[id.Name] = bad
			}
			if bad {
				t.Errorf("%s: %s is a deleted design's name", g.at(n), id.Name)
			}
		}
		if selector(n) == "trace.Compiled" {
			t.Errorf("%s: trace.Compiled is a deleted design's name", g.at(n))
		}
		if ts, ok := n.(*ast.TypeSpec); ok && g.f.Name.Name == "bench" && ts.Name.Name == "Config" {
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						if goneFields[name.Name] {
							t.Errorf("%s: bench.Config.%s is a deleted option", g.at(name), name.Name)
						}
					}
				}
			}
		}
		if c, ok := n.(*ast.CallExpr); ok && strings.HasPrefix(selector(c.Fun), "flag.") {
			for _, arg := range c.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && goneFlags[lit.Value] {
					t.Errorf("%s: the %s flag is a deleted option", g.at(lit), lit.Value)
				}
			}
		}
	})
}

// writesChecks matches a write to a Result's Checks: an assignment to
// x.Checks or x.Checks[i], an append to x.Checks, or a Checks field in a
// composite literal.
func writesChecks(n ast.Node) bool {
	isChecks := func(e ast.Expr) bool {
		if ix, ok := e.(*ast.IndexExpr); ok {
			e = ix.X
		}
		s, ok := e.(*ast.SelectorExpr)
		return ok && s.Sel.Name == "Checks"
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		return slices.ContainsFunc(n.Lhs, isChecks)
	case *ast.CallExpr:
		id, ok := n.Fun.(*ast.Ident)
		return ok && id.Name == "append" && len(n.Args) > 0 && isChecks(n.Args[0])
	case *ast.KeyValueExpr:
		id, ok := n.Key.(*ast.Ident)
		return ok && id.Name == "Checks"
	}
	return false
}

// TestOnlyTheEvaluatorWritesChecks: in internal/bench every Check comes
// from one evaluator applied to an experiment's gate table and its
// result's metrics, the same rows EXPERIMENTS.md's gate blocks render.
func TestOnlyTheEvaluatorWritesChecks(t *testing.T) {
	fns := callers(parseTree(t, false, "internal/bench"), writesChecks)
	if _, ok := fns["evaluate"]; !ok || len(fns) != 1 {
		t.Errorf("internal/bench writes Result.Checks from %v, want only evaluate", fns)
	}
}

// callers returns the functions of files (by name, with the position of
// the first match) whose bodies contain a node match accepts.
func callers(files []goFile, match func(ast.Node) bool) map[string]string {
	out := map[string]string{}
	for _, g := range files {
		for _, decl := range g.f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if _, seen := out[fn.Name.Name]; !seen && n != nil && match(n) {
					out[fn.Name.Name] = g.at(n)
				}
				return true
			})
		}
	}
	return out
}

// calls matches a method call by name, on any receiver.
func calls(method string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		s, ok := c.Fun.(*ast.SelectorExpr)
		return ok && s.Sel.Name == method
	}
}

// TestOneDestructiveTail: each step of the destructive tail has one
// body (ARCHITECTURE §7). In internal/core one function rebuilds domain
// filters (the one resync every delegation, revocation, kill and boot
// goes through) and one runs cleanups (the one retire of Revoke, a
// drain round and a kill); in internal/hw one function runs the
// cross-core shootdown round.
func TestOneDestructiveTail(t *testing.T) {
	core := parseTree(t, false, "internal/core")
	for _, method := range []string{"SyncDomainRange", "ExecuteCleanups"} {
		if fns := callers(core, calls(method)); len(fns) != 1 {
			t.Errorf("internal/core calls .%s( from %d functions %v, want exactly 1", method, len(fns), fns)
		}
	}
	emits := callers(parseTree(t, false, "internal/hw"), func(n ast.Node) bool { return selector(n) == "trace.KShootdown" })
	if len(emits) != 1 {
		t.Errorf("internal/hw emits trace.KShootdown from %d functions %v, want exactly 1", len(emits), emits)
	}
}

// filterWrites are the charges and trace kinds of a filter write. Each
// is paid or emitted in exactly one function, the one that knows what
// the write changed (ARCHITECTURE §2): vtx's SyncDomainRange charges and
// traces each changed EPT extent, pmp's program each changed entry.
var filterWrites = []struct {
	name  string
	match func(ast.Node) bool
}{
	{"Cost.EPTUpdatePage", passes("Advance", "EPTUpdatePage")},
	{"Cost.PMPWrite", passes("Advance", "PMPWrite")},
	{"trace.KEPTMap", passes("Trace", "KEPTMap")},
	{"trace.KPMPWrite", passes("Trace", "KPMPWrite")},
}

// passes matches a call to a method or function named fn one of whose
// arguments names a field or package member sel.
func passes(fn, sel string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch f := c.Fun.(type) {
		case *ast.SelectorExpr:
			ok = f.Sel.Name == fn
		case *ast.Ident:
			ok = f.Name == fn
		}
		found := false
		for _, a := range c.Args {
			ast.Inspect(a, func(n ast.Node) bool {
				if s, isSel := n.(*ast.SelectorExpr); isSel && s.Sel.Name == sel {
					found = true
				}
				return !found
			})
		}
		return ok && found
	}
}

// sites returns the functions of files, by file and name, whose bodies
// contain a node match accepts.
func sites(files []goFile, match func(ast.Node) bool) []string {
	var out []string
	for _, g := range files {
		for fn, at := range callers([]goFile{g}, match) {
			out = append(out, g.rel+":"+fn+" ("+at+")")
		}
	}
	return out
}

// TestOneFilterWriteSite: every EPT page and PMP entry a resync writes is
// charged and traced where the write's diff is known, and nowhere else,
// so a second charge site cannot bill unchanged pages again.
func TestOneFilterWriteSite(t *testing.T) {
	files := parseTree(t, false, ".")
	for _, w := range filterWrites {
		if got := sites(files, w.match); len(got) != 1 {
			t.Errorf("%s is charged or emitted from %d functions %v, want exactly 1", w.name, len(got), got)
		}
	}
	// The rule sees a planted second site.
	withPlant := append(files, plant(t, "planted.go", `package p
func refresh(b *B, pages uint64) {
	b.mach.Clock.Advance(pages * b.mach.Cost.EPTUpdatePage)
	b.mach.Clock.Advance(b.mach.Cost.PMPWrite)
	b.mach.Trace(0, trace.KEPTMap, 1, 0, 7, 0, 4096)
	b.mach.Trace(0, trace.KPMPWrite, 1, 0, 7, 0, 4096)
}`))
	for _, w := range filterWrites {
		if got := sites(withPlant, w.match); len(got) != 2 {
			t.Errorf("%s with a planted second site: found %v, want 2 sites", w.name, got)
		}
	}
}

// shootdownAcks are what a shootdown round pays and emits for each core
// it targets: one IPI+flush charge and one ack. Both belong to the one
// function that knows which cores the round targets (hw's
// shootdownRound), so no second site can interrupt, bill or ack a core
// the round left alone.
var shootdownAcks = []struct {
	name  string
	match func(ast.Node) bool
}{
	{"Cost.TLBFlush", passes("Advance", "TLBFlush")},
	{"trace.KShootdownAck", passes("Trace", "KShootdownAck")},
}

// TestOneShootdownAckSite: the per-core charge and ack of a shootdown
// round each have one site in the monitor and the machine it drives
// (internal/hw, internal/core, internal/backend). The commodity-OS
// models (internal/baseline, internal/oskit) charge TLBFlush for their
// own kernel's context switch, which flushes an untagged TLB and is no
// shootdown, so they are outside the rule.
func TestOneShootdownAckSite(t *testing.T) {
	var files []goFile
	for _, dir := range []string{"internal/hw", "internal/core", "internal/backend"} {
		files = append(files, parseTree(t, false, dir)...)
	}
	for _, w := range shootdownAcks {
		if got := sites(files, w.match); len(got) != 1 {
			t.Errorf("%s is charged or emitted from %d functions %v, want exactly 1", w.name, len(got), got)
		}
	}
	// The rule sees a planted second site.
	withPlant := append(files, plant(t, "internal/core/planted.go", `package core
func broadcast(m *Monitor) {
	for i := range m.mach.Cores {
		m.mach.Clock.Advance(m.mach.Cost.TLBFlush)
		m.mach.Trace(-1, trace.KShootdownAck, 0, uint64(i), 0, 0, 0)
	}
}`))
	for _, w := range shootdownAcks {
		if got := sites(withPlant, w.match); len(got) != 2 {
			t.Errorf("%s with a planted second site: found %v, want 2 sites", w.name, got)
		}
	}
}

// module is this module's import path prefix.
const module = "github.com/tyche-sim/tyche/"

// tcbAllowed are the packages of this module the monitor may link: the
// ones C1 counts as its TCB (capability engine, backends, codec, trace)
// and the simulated hardware it counts out (hw, tpm). Management code —
// the scheduler, libraries, the fleet — is not among them.
var tcbAllowed = map[string]bool{
	"internal/core": true, "internal/cap": true, "internal/phys": true, "internal/codec": true,
	"internal/backend": true, "internal/backend/pmp": true, "internal/backend/vtx": true,
	"internal/trace": true, "internal/hw": true, "internal/tpm": true,
}

// linked returns the packages of this module that files import,
// transitively (each package's non-test files), with the importing file
// of each.
func linked(t *testing.T, files []goFile) map[string]string {
	out := map[string]string{}
	for todo := files; len(todo) > 0; {
		g := todo[0]
		todo = todo[1:]
		for _, imp := range g.f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			dep, ok := strings.CutPrefix(path, module)
			if !ok || out[dep] != "" {
				continue
			}
			out[dep] = g.rel
			for _, f := range parseTree(t, false, dep) {
				if filepath.Dir(f.rel) == dep { // the package, not its subpackages
					todo = append(todo, f)
				}
			}
		}
	}
	return out
}

// plant parses src as a file at rel.
func plant(t *testing.T, rel, src string) goFile {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, rel, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return goFile{rel, fset, f}
}

// TestMonitorLinksOnlyItsTCB: everything internal/core links, directly
// or not, is on the allowlist, so C1's import-closure count is the
// monitor's whole TCB and a scheduler, library or fleet package cannot
// creep back in. The rule sees a planted import of internal/sched.
func TestMonitorLinksOnlyItsTCB(t *testing.T) {
	core := parseTree(t, false, "internal/core")
	check := func(files []goFile) (bad []string) {
		for dep, by := range linked(t, files) {
			if !tcbAllowed[dep] {
				bad = append(bad, dep+" (via "+by+")")
			}
		}
		return bad
	}
	if bad := check(core); len(bad) > 0 {
		t.Errorf("internal/core links packages outside its TCB: %v", bad)
	}
	planted := plant(t, "internal/core/planted.go", `package core
import _ "`+module+`internal/sched"`)
	if bad := check(append(core, planted)); len(bad) == 0 {
		t.Error("a planted import of internal/sched in internal/core went unnoticed")
	}
}

// TestSchedulerImportsNoHardware: internal/sched is management code over
// the monitor's vCPU handles; saved registers stay in the monitor, so
// the scheduler never needs the hardware model. The rule sees a planted
// import of internal/hw.
func TestSchedulerImportsNoHardware(t *testing.T) {
	hwPath := module + "internal/hw"
	check := func(files []goFile) (bad []string) {
		for _, g := range files {
			if g.imports(hwPath) {
				bad = append(bad, g.rel)
			}
		}
		return bad
	}
	files := parseTree(t, false, "internal/sched")
	if bad := check(files); len(bad) > 0 {
		t.Errorf("internal/sched imports internal/hw: %v", bad)
	}
	planted := plant(t, "internal/sched/planted.go", `package sched
import _ "`+hwPath+`"`)
	if bad := check(append(files, planted)); len(bad) != 1 {
		t.Error("a planted import of internal/hw in internal/sched went unnoticed")
	}
}

// TestOnlyCodecDecodes: under internal/, bytes are decoded by package
// codec's Reader, which refuses every encoding a Writer could not have
// produced; binary.Read has no such rule, so no other file calls it.
// The rule sees a planted call.
func TestOnlyCodecDecodes(t *testing.T) {
	check := func(files []goFile) (bad []string) {
		inspect(files, func(g goFile, n ast.Node) {
			if selector(n) == "binary.Read" && !strings.HasPrefix(g.rel, "internal/codec/") {
				bad = append(bad, g.at(n))
			}
		})
		return bad
	}
	files := parseTree(t, false, "internal")
	if bad := check(files); len(bad) > 0 {
		t.Errorf("binary.Read outside internal/codec: %v", bad)
	}
	planted := plant(t, "internal/image/planted.go", `package image
func read(r io.Reader, v *uint32) error { return binary.Read(r, binary.LittleEndian, v) }`)
	if bad := check(append(files, planted)); len(bad) != 1 {
		t.Error("a planted binary.Read in internal/image went unnoticed")
	}
}

// TestTraceHasOneSink: package trace declares exactly one interface a
// tracer delivers events through — an interface with a method that
// takes an Event — so online checking has one delivery path, under the
// sink mutex in Seq order. The rule sees a planted per-ring sink.
func TestTraceHasOneSink(t *testing.T) {
	check := func(files []goFile) (sinks []string) {
		inspect(files, func(g goFile, n ast.Node) {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return
			}
			it, ok := ts.Type.(*ast.InterfaceType)
			if !ok {
				return
			}
			for _, m := range it.Methods.List {
				fn, ok := m.Type.(*ast.FuncType)
				if ok && slices.ContainsFunc(fn.Params.List, func(p *ast.Field) bool {
					id, ok := p.Type.(*ast.Ident)
					return ok && id.Name == "Event"
				}) {
					sinks = append(sinks, ts.Name.Name)
					return
				}
			}
		})
		return sinks
	}
	var files []goFile
	for _, g := range parseTree(t, false, "internal/trace") {
		if filepath.Dir(g.rel) == "internal/trace" { // the package, not trace/check
			files = append(files, g)
		}
	}
	if sinks := check(files); !slices.Equal(sinks, []string{"Sink"}) {
		t.Errorf("package trace declares sink interfaces %v, want exactly [Sink]", sinks)
	}
	planted := plant(t, "internal/trace/planted.go", `package trace
type ShardSink interface { ShardEvent(shard int, ev Event) }`)
	if sinks := check(append(files, planted)); len(sinks) != 2 {
		t.Errorf("a planted per-ring sink in package trace: found %v, want 2 sink interfaces", sinks)
	}
}
