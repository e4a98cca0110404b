package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mutant names the seeded bug compiled into this test binary: "" in
// every normal build. A mutant build is this package's tests built with
// `go test -overlay`, which swaps in the mutant's patched product files
// and adds one test file setting mutant to the row's name; the
// MutationOracle tests read it to decide whether the checkers must
// flag their run.
var mutant string

// runMutants opts into TestMutants: each mutant is one more build of
// this package, so the ordinary test run leaves them out.
var runMutants = flag.Bool("mutants", false, "build every mutant in the mutants table with -overlay and require the mutation oracles to catch it")

// mutantEdit replaces the one occurrence of old in file (a path from
// the module root) with new.
type mutantEdit struct{ file, old, new string }

// mutantRow is one seeded bug: the edits that plant it in the product
// and any files it adds for state of its own.
type mutantRow struct {
	name  string
	edits []mutantEdit
	added map[string]string // module-relative path → contents
}

// mutants is every seeded bug the mutation oracles must catch. The
// product carries none of them: each lives here as edits of the
// product source, so a new mutant is a new row (and an oracle that
// reads mutant == its name). TestMutantPatchesApply holds every old
// text to exactly one occurrence in the tree as it stands.
var mutants = []mutantRow{
	{
		// Every shootdown round that targets the last core skips its
		// flush and ack: a real stale TLB.
		name: "tracebug",
		edits: []mutantEdit{{"internal/hw/trace.go",
			"\t\tc.invalidate(regions, full)\n",
			"\t\tif i == len(m.Cores)-1 {\n\t\t\tcontinue\n\t\t}\n\t\tc.invalidate(regions, full)\n"}},
	},
	{
		// The first planned region of a kill is neither zeroed nor shot
		// down, so its KScrubPlan is unmatched at the KKill.
		name: "scrubbug",
		edits: []mutantEdit{{"internal/core/contain.go",
			"\tfor _, r := range plan {\n\t\tif err := m.mach.Mem.Zero(r)",
			"\tfor i, r := range plan {\n\t\tif i == 0 {\n\t\t\tcontinue\n\t\t}\n\t\tif err := m.mach.Mem.Zero(r)"}},
	},
	{
		// A machine's first shootdown round that targets core 0 flushes
		// it but loses its acknowledgement.
		name: "ackbug",
		edits: []mutantEdit{{"internal/hw/trace.go",
			"\t\tm.Trace(trace.GlobalCore, trace.KShootdownAck,",
			"\t\tif i == 0 && !ackLost[m] {\n\t\t\tackLost[m] = true\n\t\t\tcontinue\n\t\t}\n\t\tm.Trace(trace.GlobalCore, trace.KShootdownAck,"}},
		added: map[string]string{"internal/hw/ack_mutant.go": "package hw\n\n// ackLost latches, per machine, the one acknowledgement the ackbug\n// mutant drops.\nvar ackLost = map[*Machine]bool{}\n"},
	},
	{
		// Retire flushes its first revocation's shootdowns on their own,
		// so a frame that retires more runs a second round.
		name: "drainbug",
		edits: []mutantEdit{{"internal/core/monitor.go",
			"\tfor _, det := range dets {\n\t\terr := m.bk.ExecuteCleanups(det.Actions())\n",
			"\tfor i, det := range dets {\n\t\terr := m.bk.ExecuteCleanups(det.Actions())\n\t\tif i == 0 {\n\t\t\tm.mach.FlushShootdowns()\n\t\t}\n"}},
	},
	{
		// DepartKill announces its scrub plan, then skips the zeroing,
		// the shootdowns and the key drop: the departed tenant's
		// plaintext stays on the source machine.
		name: "migratebug",
		edits: []mutantEdit{
			{"internal/core/contain.go",
				"\treturn m.ForceKill(id)\n}\n\n// forceDestroy",
				"\tdeparting = true\n\tdefer func() { departing = false }()\n\treturn m.ForceKill(id)\n}\n\n// forceDestroy"},
			{"internal/core/contain.go",
				"\tt.scrubbed = plan[:0]",
				"\tif departing {\n\t\treturn\n\t}\n\tt.scrubbed = plan[:0]"},
			{"internal/core/contain.go",
				"\tm.cryptoErase(d.id)\n",
				"\tif !departing {\n\t\tm.cryptoErase(d.id)\n\t}\n"},
		},
		added: map[string]string{"internal/core/departing_mutant.go": "package core\n\n// departing is set while the migratebug mutant's DepartKill runs.\nvar departing bool\n"},
	},
	{
		// Every round that targets any core leaves out the highest core
		// resident for its domains, which keeps its translations.
		name: "rangebug",
		edits: []mutantEdit{
			{"internal/hw/trace.go",
				"import (\n",
				"import (\n\t\"math/bits\"\n"},
			{"internal/hw/trace.go",
				"\tm.Trace(trace.GlobalCore, trace.KShootdown, first, targets,",
				"\tif targets != 0 {\n\t\ttargets &^= 1 << (bits.Len64(targets) - 1)\n\t}\n\tm.Trace(trace.GlobalCore, trace.KShootdown, first, targets,"},
		},
	},
}

// moduleRoot is the module's root directory: this package's tests run
// in internal/core.
const moduleRoot = "../.."

// patched returns the mutant's product files, module-relative path →
// contents, with its edits applied in order. Each edit's old text must
// occur exactly once in the file as the edits before it left it.
func (mu mutantRow) patched() (map[string]string, error) {
	files := map[string]string{}
	for _, e := range mu.edits {
		src, ok := files[e.file]
		if !ok {
			b, err := os.ReadFile(filepath.Join(moduleRoot, e.file))
			if err != nil {
				return nil, err
			}
			src = string(b)
		}
		if n := strings.Count(src, e.old); n != 1 {
			return nil, fmt.Errorf("mutant %s: %s holds %d copies of %q, want 1", mu.name, e.file, n, e.old)
		}
		files[e.file] = strings.Replace(src, e.old, e.new, 1)
	}
	for rel := range mu.added {
		if _, err := os.Stat(filepath.Join(moduleRoot, rel)); err == nil {
			return nil, fmt.Errorf("mutant %s adds %s, which the tree already has", mu.name, rel)
		}
	}
	return files, nil
}

// TestMutantPatchesApply: every mutant's edits still apply, so a
// refactor that moves a mutated line fails here, in the ordinary test
// run, rather than in the opt-in mutant builds.
func TestMutantPatchesApply(t *testing.T) {
	names := map[string]bool{}
	for _, mu := range mutants {
		if names[mu.name] {
			t.Errorf("mutant %s: two rows", mu.name)
		}
		names[mu.name] = true
		if _, err := mu.patched(); err != nil {
			t.Error(err)
		}
	}
}

// writeOverlay writes the mutant's patched and added files, and the
// test file that names it, under dir, and returns the path of the
// overlay file that maps the tree's paths to them.
func (mu mutantRow) writeOverlay(dir string) (string, error) {
	files, err := mu.patched()
	if err != nil {
		return "", err
	}
	for rel, src := range mu.added {
		files[rel] = src
	}
	files["internal/core/mutant_name_test.go"] = fmt.Sprintf("package core\n\nfunc init() { mutant = %q }\n", mu.name)
	replace := map[string]string{}
	for rel, src := range files {
		disk, err := filepath.Abs(filepath.Join(moduleRoot, rel))
		if err != nil {
			return "", err
		}
		backing := filepath.Join(dir, strings.ReplaceAll(rel, "/", "_"))
		if err := os.WriteFile(backing, []byte(src), 0o644); err != nil {
			return "", err
		}
		replace[disk] = backing
	}
	b, err := json.Marshal(map[string]any{"Replace": replace})
	if err != nil {
		return "", err
	}
	overlay := filepath.Join(dir, "overlay.json")
	return overlay, os.WriteFile(overlay, b, 0o644)
}

// TestMutants builds this package's tests once per mutant, its patches
// overlaid on the tree, and requires the mutation oracles to pass —
// the oracle named for the mutant catching it with the verdict it
// requires, every other one skipping — and to report what they caught.
// Opt-in, with -mutants: `make mutation` runs it.
func TestMutants(t *testing.T) {
	if !*runMutants {
		t.Skip("each mutant is a test build of its own: run with -mutants (make mutation)")
	}
	for _, mu := range mutants {
		t.Run(mu.name, func(t *testing.T) {
			t.Parallel() // each build is a process of its own
			overlay, err := mu.writeOverlay(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			out, err := exec.Command("go", "test", "-count=1", "-overlay", overlay, "-run", "MutationOracle", "-v", ".").CombinedOutput()
			if err != nil {
				t.Fatalf("mutant %s survived (or broke the build): %v\n%s", mu.name, err, out)
			}
			var caught []string
			for _, line := range strings.Split(string(out), "\n") {
				if _, verdict, ok := strings.Cut(line, "caught: "); ok {
					caught = append(caught, verdict)
				}
			}
			if len(caught) == 0 {
				t.Fatalf("mutant %s survived: no oracle reported catching it\n%s", mu.name, out)
			}
			t.Logf("mutant %s caught: %s", mu.name, strings.Join(caught, "; "))
		})
	}
}
