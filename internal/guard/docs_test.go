package guard

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The docs restate two facts of the code that change with it: the
// monitor's lock order and the guest ABI's verb numbers. These tests
// hold each restatement to its source.

// readDoc returns a file under the repository root.
func readDoc(t *testing.T, rel string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", rel))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// lockName matches a lock in a lock-order statement: revMu, hwMu,
// coreSched.mu, Domain.mu, ...
var lockName = regexp.MustCompile(`\b[A-Za-z]+(?:Mu|\.mu)\b`)

// lockOrder returns the locks named from "Lock order" up to the leaf
// capability-space lock, in order.
func lockOrder(t *testing.T, where, text string) []string {
	t.Helper()
	i := strings.Index(text, "Lock order")
	j := strings.Index(text[max(i, 0):], "capability-space lock")
	if i < 0 || j < 0 {
		t.Fatalf("%s states no lock order ending at the capability-space lock", where)
	}
	return lockName.FindAllString(text[i:i+j], -1)
}

// TestLockOrderDocMatchesCode: ARCHITECTURE §7's lock order names the
// locks of the Lock order paragraph on core.Monitor, in the same order.
func TestLockOrderDocMatchesCode(t *testing.T) {
	var comment string
	inspect(parseTree(t, false, "internal/core/monitor.go"), func(g goFile, n ast.Node) {
		if d, ok := n.(*ast.GenDecl); ok && d.Tok == token.TYPE && d.Specs[0].(*ast.TypeSpec).Name.Name == "Monitor" {
			comment = d.Doc.Text()
		}
	})
	code := lockOrder(t, "core.Monitor's doc comment", comment)
	doc := lockOrder(t, "docs/ARCHITECTURE.md", readDoc(t, "docs/ARCHITECTURE.md"))
	if len(code) < 3 || !slices.Equal(doc, code) {
		t.Errorf("ARCHITECTURE.md's lock order %v, the code's %v", doc, code)
	}
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
