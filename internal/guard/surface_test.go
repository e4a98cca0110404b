package guard

import (
	"go/ast"
	"path"
	"slices"
	"strings"
	"testing"
)

// exportAllowed are the exported functions and methods under internal/
// that stay exported although only tests call them, keyed
// package.Recv.Name (or package.Name), each with its reason. Anything
// else that only tests reach lives in a _test.go file or in a
// test-support package. An entry whose declaration is gone fails the
// rule; so does one without a reason.
var exportAllowed = map[string]string{
	"hw.Asm.Jz":  "the assembler emits every opcode of the ISA; the interpreter's tests use them all",
	"hw.Asm.Mul": "the assembler emits every opcode of the ISA; the interpreter's tests use them all",
	"hw.Asm.Nop": "the assembler emits every opcode of the ISA; the interpreter's tests use them all",
	"hw.Asm.Or":  "the assembler emits every opcode of the ISA; the interpreter's tests use them all",
	"hw.Asm.Shl": "the assembler emits every opcode of the ISA; the interpreter's tests use them all",
	"hw.Asm.Shr": "the assembler emits every opcode of the ISA; the interpreter's tests use them all",

	"hw.Core.AppendTranslations": "the stale-translation oracle of core's and backend's tests reads what a core can still use without a walk",
	"hw.Core.ClearStall":         "the firmware reset of a stalled core: the embedder's recovery step, which the fault tests take",
	"hw.Device.DMACount":         "a device's DMA count: dist's tests see channels share one NIC through it",
	"hw.EPT.Mappings":            "an EPT's contents as runs: what backend's and core's tests compare a derived filter with",
	"hw.Machine.PendingIRQs":     "the interrupt controller's queue depth: the IRQ tests of core, dist and fault read it",

	"core.Domain.Log": "the read side of the LOG hypercall, a guest's only output: core's and libtyche's tests check what a guest ran",

	"check.Replay":                      "the reference every mutation oracle and the online-check tests compare the online checker with",
	"check.RemoteVerifier.Head":         "a digest chain's head: TestServeReproducible compares it across same-seed runs",
	"check.DecodeDigest":                "the digest wire decoder the remote verifier runs; rv's tests decode shipped digests with it",
	"baseline.Commodity.RunAll":         "the commodity OS's run loop: the baseline's tests execute processes through it (C8 only spawns)",
	"libtyche.Client.NewSandbox":        "one of §4.2's four abstractions, each one constructor; no example builds a sandbox",
	"libtyche.Client.NewConfidentialVM": "one of §4.2's four abstractions, each one constructor; no example builds a confidential VM",
	"libtyche.Channel.RefCount":         "Figure 2's attestable shared memory: the refcount-2 check each endpoint makes",
	"libtyche.Channel.Write":            "Figure 2's channel as its owner writes it; the package Example and tests use it",
	"libtyche.Channel.Close":            "a channel's teardown: revoke the peer, return the pages to the heap",
	"libtyche.Allocator.FreeBytes":      "a heap's free bytes, which Alloc's error reports and the leak checks of libtyche's and oskit's tests compare",
	"oskit.OS.Reap":                     "frees an exited process's memory: the OS model's teardown, which the soak and oskit tests drive",
	"sched.Scheduler.Adopt":             "queues a migrated domain's restored vCPUs: the scheduler side of RestoreDomain, driven by sched's migration test",
}

// testSupport are the test-support packages: code that tests of more
// than one package share. Their exported names are for tests, so the
// rule skips them, and no non-test file outside them may import one.
var testSupport = map[string]bool{
	"internal/trace/tracetest": true,
}

// isTestSupport reports whether rel lies in a test-support package.
func isTestSupport(rel string) bool { return testSupport[path.Dir(rel)] }

// exportKey names a declaration the way exportAllowed does.
func exportKey(g goFile, fn *ast.FuncDecl) string {
	key := g.f.Name.Name + "."
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		typ := fn.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if ix, ok := typ.(*ast.IndexExpr); ok {
			typ = ix.X
		}
		if id, ok := typ.(*ast.Ident); ok {
			key += id.Name + "."
		}
	}
	return key + fn.Name.Name
}

// uncalledExports returns the exported functions and methods declared
// in files under internal/ (test-support packages aside) that nothing
// reaches: their name appears in no other file of files, they are not a
// method an interface of files declares (or String or Error), and
// exportAllowed does not list them. It also returns the allowlist
// entries that name no declaration, and the files outside test-support
// packages that import one. Matching is by identifier, so a name
// collision counts as a caller.
func uncalledExports(files []goFile) (bad, stale, imports []string) {
	used := map[string]map[string]bool{} // identifier -> files naming it
	iface := map[string]bool{"String": true, "Error": true}
	for _, g := range files {
		decls := map[*ast.Ident]bool{}
		for _, d := range g.f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				decls[fn.Name] = true
			}
		}
		ast.Inspect(g.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !decls[n] {
					if used[n.Name] == nil {
						used[n.Name] = map[string]bool{}
					}
					used[n.Name][g.rel] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						iface[name.Name] = true
					}
				}
			}
			return true
		})
		for dep := range testSupport {
			if !isTestSupport(g.rel) && g.imports(module+dep) {
				imports = append(imports, g.rel+" imports "+dep)
			}
		}
	}
	declared := map[string]bool{}
	for _, g := range files {
		if !strings.HasPrefix(g.rel, "internal/") || isTestSupport(g.rel) {
			continue
		}
		for _, d := range g.f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := exportKey(g, fn)
			declared[key] = true
			if fn.Recv != nil && iface[fn.Name.Name] || exportAllowed[key] != "" {
				continue
			}
			if users := used[fn.Name.Name]; len(users) > 1 || len(users) == 1 && !users[g.rel] {
				continue
			}
			bad = append(bad, g.at(fn)+": "+key)
		}
	}
	for key := range exportAllowed {
		if !declared[key] {
			stale = append(stale, key)
		}
	}
	slices.Sort(stale)
	return bad, stale, imports
}

// TestExportedFuncsHaveCallers: every exported function or method
// declared in a non-test file under internal/ is named by some other
// non-test file of the repository or of benchmark/ (which compiles
// against internal/), implements an interface, or is on exportAllowed
// with its reason. A helper only tests reach belongs in a _test.go file
// or a test-support package, so the exported surface is what callers
// use. The rule sees a planted uncalled method and a planted non-test
// import of a test-support package.
func TestExportedFuncsHaveCallers(t *testing.T) {
	files := append(parseTree(t, false, "."), parseTree(t, false, "benchmark")...)
	bad, stale, imports := uncalledExports(files)
	for _, b := range bad {
		t.Errorf("%s has no caller outside tests: delete it, move it into a _test.go file, or list it in exportAllowed with a reason", b)
	}
	for _, key := range stale {
		t.Errorf("exportAllowed lists %s, which is not declared: drop the entry", key)
	}
	for _, imp := range imports {
		t.Errorf("%s: a test-support package is for tests", imp)
	}
	for key, why := range exportAllowed {
		if strings.TrimSpace(why) == "" {
			t.Errorf("exportAllowed[%q] has no reason", key)
		}
	}
	if len(exportAllowed) > 30 {
		t.Errorf("exportAllowed has %d entries; the allowlist stays short (at most 30)", len(exportAllowed))
	}
	planted := plant(t, "internal/hw/planted.go", `package hw
import _ "`+module+`internal/trace/tracetest"
func (m *Machine) PlantedProbe() int { return 0 }`)
	got, _, gotImports := uncalledExports(append(files, planted))
	if len(got) != len(bad)+1 || !slices.Contains(got, "internal/hw/planted.go:3: hw.Machine.PlantedProbe") {
		t.Errorf("a planted uncalled method in internal/hw: found %v, want it beside %v", got, bad)
	}
	if len(gotImports) != len(imports)+1 {
		t.Errorf("a planted import of internal/trace/tracetest in internal/hw: found %v", gotImports)
	}
}
