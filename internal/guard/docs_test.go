package guard

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The docs restate a fact of the code that changes with it: the guest
// ABI's verb numbers. This test holds the restatement to its source.

// readDoc returns a file under the repository root.
func readDoc(t *testing.T, rel string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", rel))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// verbRow matches a row of docs/ABI.md's monitor-call table.
var verbRow = regexp.MustCompile("(?m)^\\| (\\d+) \\| `(\\w+)` \\|")

// TestABIDocMatchesCode: docs/ABI.md's monitor-call table lists every
// Call* constant of internal/core/abi.go under its number, and nothing
// else.
func TestABIDocMatchesCode(t *testing.T) {
	code := map[string]string{}
	inspect(parseTree(t, false, "internal/core/abi.go"), func(g goFile, n ast.Node) {
		if vs, ok := n.(*ast.ValueSpec); ok && len(vs.Names) == 1 && len(vs.Values) == 1 {
			if lit, ok := vs.Values[0].(*ast.BasicLit); ok && lit.Kind == token.INT && strings.HasPrefix(vs.Names[0].Name, "Call") {
				code[lit.Value] = strings.TrimPrefix(vs.Names[0].Name, "Call")
			}
		}
	})
	doc := readDoc(t, "docs/ABI.md")
	i := strings.Index(doc, "| # | name | in | out |")
	if i < 0 {
		t.Fatal("docs/ABI.md has no monitor-call table")
	}
	table, _, _ := strings.Cut(doc[i:], "\n\n")
	rows := map[string]string{}
	for _, m := range verbRow.FindAllStringSubmatch(table, -1) {
		rows[m[1]] = m[2]
	}
	if len(code) == 0 || len(rows) != len(code) {
		t.Errorf("docs/ABI.md lists %d monitor calls, abi.go declares %d", len(rows), len(code))
	}
	for num, name := range code {
		if rows[num] != name {
			t.Errorf("monitor call %s is %s in abi.go, %q in docs/ABI.md", num, name, rows[num])
		}
	}
}

// indexRow matches a row of DESIGN.md's experiment index, capturing its
// ID; benchRef matches a backticked benchmark name in it, with the
// sub-benchmark it names, if any.
var (
	indexRow = regexp.MustCompile("(?m)^\\| ([A-Z]\\d+) \\|.*$")
	benchRef = regexp.MustCompile("`(Benchmark\\w+)(?:/(\\w+))?`")
)

// badBenchRefs returns what is wrong with the benchmarks the experiment
// index in doc names, given the module's Benchmark functions, and how
// many it names.
func badBenchRefs(doc string, funcs map[string]bool) (bad []string, named int) {
	i := strings.Index(doc, "## Experiment index")
	if i < 0 {
		return []string{"no experiment index"}, 0
	}
	for _, row := range indexRow.FindAllStringSubmatch(doc[i:], -1) {
		for _, ref := range benchRef.FindAllStringSubmatch(row[0], -1) {
			named++
			if !funcs[ref[1]] {
				bad = append(bad, "row "+row[1]+" names "+ref[1]+", which no test file declares")
			}
			if ref[2] != "" && ref[2] != row[1] {
				bad = append(bad, "row "+row[1]+" names "+ref[1]+"/"+ref[2]+", another experiment's")
			}
		}
	}
	return bad, named
}

// TestDesignIndexNamesRealBenchmarks: every benchmark DESIGN.md's
// experiment index says regenerates a row is a Benchmark function of
// the module, and a sub-benchmark it names is the row's own experiment.
// The rule sees a planted name that no file declares and a planted
// sub-benchmark of another row.
func TestDesignIndexNamesRealBenchmarks(t *testing.T) {
	funcs := map[string]bool{}
	inspect(parseTree(t, true, "."), func(g goFile, n ast.Node) {
		if fn, ok := n.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
			funcs[fn.Name.Name] = true
		}
	})
	if bad, named := badBenchRefs(readDoc(t, "DESIGN.md"), funcs); len(bad) > 0 || named == 0 {
		t.Errorf("DESIGN.md's experiment index names %d benchmarks: %v", named, bad)
	}
	planted := "## Experiment index\n\n| C2 | x | `BenchmarkC2Transitions` |\n| C3 | x | `BenchmarkExperiments/C4` |\n"
	if bad, _ := badBenchRefs(planted, funcs); len(bad) != 2 {
		t.Errorf("planted bad benchmark names went unnoticed: %v", bad)
	}
}
