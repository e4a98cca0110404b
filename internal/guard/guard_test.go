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
// is set. Build tags are ignored: a rule holds in every build. Hidden
// directories and nested modules (benchmark/) are not part of this
// module and are skipped.
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

// TestCapSpaceHasOneLock: the capability space is one RWMutex over plain
// maps (ARCHITECTURE §7), with no second lock and no sync.Map.
func TestCapSpaceHasOneLock(t *testing.T) {
	locks := 0
	inspect(parseTree(t, false, "internal/cap"), func(g goFile, n ast.Node) {
		switch selector(n) {
		case "sync.RWMutex":
			locks++
		case "sync.Map":
			t.Errorf("%s: sync.Map; the space keeps plain maps under its one lock", g.at(n))
		}
	})
	if locks != 1 {
		t.Errorf("internal/cap names sync.RWMutex %d times, want exactly 1", locks)
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
// goroutine, so internal/core starts no goroutine and waits for none.
// Cores run concurrently only where a caller drives RunCore from
// several goroutines.
func TestCoreStartsNoGoroutine(t *testing.T) {
	inspect(parseTree(t, false, "internal/core"), func(g goFile, n ast.Node) {
		if _, ok := n.(*ast.GoStmt); ok {
			t.Errorf("%s: go statement in internal/core", g.at(n))
		}
		if selector(n) == "sync.WaitGroup" {
			t.Errorf("%s: sync.WaitGroup in internal/core", g.at(n))
		}
	})
}

// gone matches the names of deleted designs, none of which may come
// back under any name: the A/B scaffolding (the big lock, its build, the
// reclaim and scrub fan-outs, the parallel ring drains), the tracer's
// compile-out tag, the cached transfer bodies, the fine-grained lock
// helpers of the capability space, the QSBR side channel, the
// transition cache, trace sampling, the digest's shard stats, the
// destructive tail's second bodies (the delegation-only resync, the
// single-victim kill paths and the second grace entry), and the bench
// harness's opt-in trace audit.
var gone = regexp.MustCompile(`biglock|BigLockBuild|SetReclaimWorkers|ScrubShards|RingParallelDrains|monLock|notrace|ErrNotCompiled|` +
	`cachedCall|cachedReturn|synchronizeAt|lockOwners|rlockOwner|rlockAll|revokeSubtree|numShards|` +
	`deferFree|deferq|minObserved|setOnline|epochMaxCores|SetTransitionCache|tcLookup|tcFill|cfgGen|overlapShards|CoreRun$|` +
	`SetSampling|SampleN|Sampleable|SampledOut|ShardStat|` +
	`syncAfterChange|destroyDomain|forceKill|synchronizeShared|traceAudit`)

// goneFields are deleted fields of the bench Config: every experiment
// world carries the online checker, so there is no switch to turn it
// (or the rv service) on.
var goneFields = map[string]bool{"Trace": true, "Verify": true}

// goneFlags are deleted command-line flags: tyche-bench's -traced and
// -verify went with those fields.
var goneFlags = map[string]bool{`"traced"`: true, `"verify"`: true}

// TestDeletedNamesStayGone parses every Go file of the module, tests
// included: no identifier may match gone, nor trace.Compiled be named,
// nor a //go:build line name a deleted tag, nor the bench Config declare
// a gone field, nor a flag package call name a gone flag.
func TestDeletedNamesStayGone(t *testing.T) {
	files := parseTree(t, true, ".")
	for _, g := range files {
		for _, cg := range g.f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//go:build") && gone.MatchString(c.Text) {
					t.Errorf("%s: %s names a deleted build", g.at(c), c.Text)
				}
			}
		}
	}
	inspect(files, func(g goFile, n ast.Node) {
		if id, ok := n.(*ast.Ident); ok && gone.MatchString(id.Name) {
			t.Errorf("%s: %s is a deleted design's name", g.at(n), id.Name)
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
	for _, method := range []string{"SyncDomain", "ExecuteCleanups"} {
		if fns := callers(core, calls(method)); len(fns) != 1 {
			t.Errorf("internal/core calls .%s( from %d functions %v, want exactly 1", method, len(fns), fns)
		}
	}
	emits := callers(parseTree(t, false, "internal/hw"), func(n ast.Node) bool { return selector(n) == "trace.KShootdown" })
	if len(emits) != 1 {
		t.Errorf("internal/hw emits trace.KShootdown from %d functions %v, want exactly 1", len(emits), emits)
	}
}
