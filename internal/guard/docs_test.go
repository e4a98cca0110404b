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
