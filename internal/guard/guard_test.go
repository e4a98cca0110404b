// Package guard holds the repository's structural rules as tests: each
// one parses the tree and fails on a violation, so `go test ./...`
// enforces a rule that would otherwise be a grep in CI.
package guard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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
// is set. Build tags are ignored: a rule holds in every build.
func parseTree(t *testing.T, tests bool, paths ...string) []goFile {
	t.Helper()
	root := filepath.Join("..", "..")
	var out []goFile
	for _, p := range paths {
		err := filepath.WalkDir(filepath.Join(root, p), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || !tests && strings.HasSuffix(path, "_test.go") {
				return err
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
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
