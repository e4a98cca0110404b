package hw

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
)

// eptModel is the reference the extent table is tested against: the
// per-page permission map the EPT used to be. Slow and obviously right.
type eptModel struct {
	pages map[uint64]Perm
}

func newEPTModel() *eptModel { return &eptModel{pages: make(map[uint64]Perm)} }

func (m *eptModel) lookup(a phys.Addr) Perm { return m.pages[a.Page()] }

func (m *eptModel) mapRegion(r phys.Region, p Perm) {
	for pg := r.Start.Page(); pg < r.End.Page(); pg++ {
		if p == PermNone {
			delete(m.pages, pg)
		} else {
			m.pages[pg] = p
		}
	}
}

func (m *eptModel) clear() { m.pages = make(map[uint64]Perm) }

// diff is what a Replace from the table before to the model's table
// writes, page by page: each page whose permission differs, with its new
// permission, runs of equal new permission merged.
func (m *eptModel) diff(before map[uint64]Perm) []EPTMapping {
	var out []EPTMapping
	for pg := uint64(0); pg < eptModelPages; pg++ {
		p := m.pages[pg]
		if p == before[pg] {
			continue
		}
		start := phys.Addr(pg << phys.PageShift)
		if n := len(out); n > 0 && out[n-1].Region.End == start && out[n-1].Perm == p {
			out[n-1].Region.End += phys.PageSize
			continue
		}
		out = append(out, EPTMapping{Region: phys.Region{Start: start, End: start + phys.PageSize}, Perm: p})
	}
	return out
}

func (m *eptModel) mappings() []EPTMapping {
	if len(m.pages) == 0 {
		return nil
	}
	pgs := make([]uint64, 0, len(m.pages))
	for pg := range m.pages {
		pgs = append(pgs, pg)
	}
	sort.Slice(pgs, func(i, j int) bool { return pgs[i] < pgs[j] })
	var out []EPTMapping
	for _, pg := range pgs {
		p := m.pages[pg]
		start := phys.Addr(pg << phys.PageShift)
		if n := len(out); n > 0 && out[n-1].Region.End == start && out[n-1].Perm == p {
			out[n-1].Region.End += phys.PageSize
			continue
		}
		out = append(out, EPTMapping{
			Region: phys.Region{Start: start, End: start + phys.PageSize},
			Perm:   p,
		})
	}
	return out
}

// replace is Replace's contract spelled out: malformed input changes
// nothing; well-formed input becomes the table on every page of scope,
// and every page outside it keeps its permission.
func (m *eptModel) replace(scope phys.Region, runs []EPTMapping) bool {
	if !scope.Start.PageAligned() || !scope.End.PageAligned() {
		return false
	}
	end := scope.Start
	for _, r := range runs {
		if r.Region.Validate() != nil || r.Region.Start < end || r.Region.End > scope.End {
			return false
		}
		end = r.Region.End
	}
	m.pages = maps.Clone(m.pages) // the caller keeps the table before
	for pg := range m.pages {
		if scope.Contains(phys.Addr(pg << phys.PageShift)) {
			delete(m.pages, pg)
		}
	}
	for _, r := range runs {
		m.mapRegion(r.Region, r.Perm)
	}
	return true
}

// eptModelPages is the address space the model sequences play in. Small,
// so that random regions collide, split and merge constantly.
const eptModelPages = 48

// checkCanonical asserts the form every published table must have.
func checkCanonical(t *testing.T, runs []EPTMapping) {
	t.Helper()
	for i, r := range runs {
		if r.Region.Validate() != nil {
			t.Fatalf("run %d %v: empty or unaligned", i, r)
		}
		if r.Perm == PermNone {
			t.Fatalf("run %d %v: PermNone run published", i, r)
		}
		if i == 0 {
			continue
		}
		prev := runs[i-1]
		if r.Region.Start < prev.Region.End {
			t.Fatalf("runs %d,%d (%v, %v): unsorted or overlapping", i-1, i, prev, r)
		}
		if r.Region.Start == prev.Region.End && r.Perm == prev.Perm {
			t.Fatalf("runs %d,%d (%v, %v): adjacent equal runs not merged", i-1, i, prev, r)
		}
	}
}

// compareEPT checks the table against the model on every page (at its
// first, a middle and its last byte), on the page count and on the runs.
func compareEPT(t *testing.T, e *EPT, m *eptModel, step int) {
	t.Helper()
	runs := e.Mappings()
	checkCanonical(t, runs)
	for pg := uint64(0); pg <= eptModelPages; pg++ {
		base := phys.Addr(pg << phys.PageShift)
		for _, a := range []phys.Addr{base, base + 0x7f8, base + phys.PageSize - 1} {
			if got, want := e.Lookup(a), m.lookup(a); got != want {
				t.Fatalf("step %d: Lookup(%v) = %v, model %v; table %v", step, a, got, want, runs)
			}
		}
	}
	if got, want := e.MappedPages(), len(m.pages); got != want {
		t.Fatalf("step %d: MappedPages = %d, model %d", step, got, want)
	}
	if want := m.mappings(); !reflect.DeepEqual(runs, want) {
		t.Fatalf("step %d: Mappings = %v, model %v", step, runs, want)
	}
}

// runEPTOps decodes data as a sequence of Map/Unmap/Replace/Clear calls
// and plays it against the table and the model; a Replace must also
// report exactly the model's page-by-page difference, and one that
// reports nothing must keep the published table. Four bytes per call:
// opcode, start page, page count, flags (bits 0-2 the permission). A
// Replace takes that as its first run, offset off the page grid if flag
// bit 3 is set, and reads up to two more (start, count, permission)
// triples as flag bits 4-5 say; the runs may be unsorted, overlapping or
// empty. Its scope is the whole address space, or with flag bit 6 the
// (start, count) pair read before the extra runs, offset off the page
// grid with flag bit 7; the runs may lie partly or wholly outside it.
func runEPTOps(t *testing.T, data []byte) {
	t.Helper()
	e, m := NewEPT(), newEPTModel()
	var buf []EPTMapping // Replace's extents, storage reused across calls
	region := func(start, count byte) phys.Region {
		s := uint64(start) % eptModelPages
		n := uint64(count) % (eptModelPages - s + 1)
		return phys.Region{Start: phys.Addr(s << phys.PageShift), End: phys.Addr((s + n) << phys.PageShift)}
	}
	for step := 0; len(data) >= 4; step++ {
		op, r, p, flags := data[0]%4, region(data[1], data[2]), Perm(data[3])&PermRWX, data[3]
		unaligned, extra := flags&8 != 0, int(flags>>4&3)%3
		data = data[4:]
		gen := e.Generation()
		changed := true
		switch op {
		case 0:
			err := e.Map(r, p)
			if changed = !r.Empty(); changed {
				m.mapRegion(r, p)
			}
			if (err == nil) != changed {
				t.Fatalf("step %d: Map(%v, %v) error = %v", step, r, p, err)
			}
		case 1:
			err := e.Unmap(r)
			if changed = !r.Empty(); changed {
				m.mapRegion(r, PermNone)
			}
			if (err == nil) != changed {
				t.Fatalf("step %d: Unmap(%v) error = %v", step, r, err)
			}
		case 2:
			e.Clear()
			m.clear()
		case 3:
			runs := []EPTMapping{{Region: r, Perm: p}}
			if unaligned {
				runs[0].Region.Start += 0x10
			}
			scope := phys.AllMemory
			if flags&0x40 != 0 && len(data) >= 2 {
				scope = region(data[0], data[1])
				if flags&0x80 != 0 {
					scope.End += 0x10
				}
				data = data[2:]
			}
			for ; extra > 0 && len(data) >= 3; extra-- {
				runs = append(runs, EPTMapping{Region: region(data[0], data[1]), Perm: Perm(data[2]) & PermRWX})
				data = data[3:]
			}
			before, held := m.pages, e.tab // an accepted replace gives the model a new map
			ext, err := e.Replace(scope, runs, buf)
			buf = ext
			changed = m.replace(scope, runs)
			if (err == nil) != changed {
				t.Fatalf("step %d: Replace(%v, %v) error = %v, model accepted = %v", step, scope, runs, err, changed)
			}
			if want := m.diff(before); changed && !slices.Equal(ext, want) {
				t.Fatalf("step %d: Replace(%v, %v) reported %v, page-by-page difference %v", step, scope, runs, ext, want)
			}
			if len(ext) == 0 && !sameTable(e.tab, held) {
				t.Fatalf("step %d: Replace(%v, %v) reported no change but published a new table", step, scope, runs)
			}
		}
		if want := gen + 1; changed && e.Generation() != want {
			t.Fatalf("step %d: generation %d -> %d, want one bump per publish", step, gen, e.Generation())
		}
		if !changed && e.Generation() != gen {
			t.Fatalf("step %d: rejected call moved the generation %d -> %d", step, gen, e.Generation())
		}
		compareEPT(t, e, m, step)
	}
}

func TestEPTMatchesPageModel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for seq := 0; seq < 300; seq++ {
		data := make([]byte, 4*(1+rng.Intn(60)))
		rng.Read(data)
		runEPTOps(t, data)
	}
}

func FuzzEPTExtents(f *testing.F) {
	f.Add([]byte{0, 2, 4, 3, 0, 4, 4, 1, 1, 3, 2, 0})                    // map, overlapping map, unmap across the seam
	f.Add([]byte{0, 0, 48, 7, 1, 10, 1, 0, 0, 10, 1, 7})                 // punch a hole and fill it back: one run again
	f.Add([]byte{3, 1, 2, 0x21, 3, 2, 1, 9, 1, 4})                       // replace with three runs, the first two mergeable
	f.Add([]byte{0, 5, 5, 5, 3, 9, 2, 0x11, 1, 4, 2})                    // replace with unsorted runs: rejected
	f.Add([]byte{0, 5, 5, 5, 3, 9, 2, 0x09})                             // replace with an unaligned run: rejected
	f.Add([]byte{0, 1, 3, 2, 2, 0, 0, 0, 3, 0, 0, 1, 0, 47, 1, 4})       // clear, replace with an empty run, map the last page
	f.Add([]byte{3, 2, 8, 3, 3, 2, 8, 3, 3, 2, 8, 7, 3, 2, 4, 3})        // replace, the same again, widen the run, shrink it
	f.Add([]byte{0, 0, 40, 3, 3, 4, 2, 0x45, 2, 8, 3, 5, 1, 0x41, 6, 2}) // scoped replaces inside a run: split it, then narrow the scope
	f.Add([]byte{0, 0, 40, 3, 3, 4, 2, 3, 3, 4, 2, 0x43, 4, 2})          // scoped replace of an unchanged range: nothing written
	f.Add([]byte{0, 0, 40, 3, 3, 4, 8, 0x41, 6, 2})                      // run outside its scope: rejected
	f.Add([]byte{0, 0, 40, 3, 3, 4, 2, 0xc1, 4, 2})                      // unaligned scope: rejected
	f.Add([]byte{0, 0, 40, 3, 3, 9, 0, 0x40, 9, 0})                      // empty scope: nothing written
	f.Fuzz(func(t *testing.T, data []byte) { runEPTOps(t, data) })
}

func TestEPTReplaceRejectsMalformed(t *testing.T) {
	run := func(start, end phys.Addr, p Perm) EPTMapping {
		return EPTMapping{Region: phys.Region{Start: start, End: end}, Perm: p}
	}
	e := NewEPT()
	good := []EPTMapping{run(0x1000, 0x3000, PermRX), run(0x8000, 0x9000, PermRW)}
	if _, err := e.Replace(phys.AllMemory, good, nil); err != nil {
		t.Fatal(err)
	}
	gen := e.Generation()
	for name, bad := range map[string][]EPTMapping{
		"unsorted":       {run(0x8000, 0x9000, PermR), run(0x1000, 0x2000, PermR)},
		"overlapping":    {run(0x1000, 0x3000, PermR), run(0x2000, 0x4000, PermW)},
		"unaligned":      {run(0x1000, 0x2800, PermR)},
		"empty":          {run(0x2000, 0x2000, PermR)},
		"bad after good": {run(0x1000, 0x2000, PermR), run(0x1800, 0x3000, PermR)},
	} {
		if _, err := e.Replace(phys.AllMemory, bad, nil); err == nil {
			t.Errorf("%s: Replace(%v) accepted", name, bad)
		}
		if got := e.Mappings(); !reflect.DeepEqual(got, good) {
			t.Errorf("%s: table changed to %v", name, got)
		}
		if e.Generation() != gen {
			t.Errorf("%s: generation moved %d -> %d", name, gen, e.Generation())
		}
	}
	// The table keeps its own copy of what it was given.
	good[0].Perm = PermNone
	if got := e.Lookup(0x1000); got != PermRX {
		t.Fatalf("caller's slice aliases the table: Lookup = %v", got)
	}
}

// TestEPTReplaceIsOnePublish: swapping the table between two layouts
// that both map page 4 installs each whole in one step — one generation
// bump per Replace, and page 4 reads that layout's permission after it,
// never the deny-all gap a Clear-then-Map rebuild has between its two
// steps.
func TestEPTReplaceIsOnePublish(t *testing.T) {
	page := func(pg uint64, n uint64, p Perm) EPTMapping {
		return EPTMapping{Region: phys.MakeRegion(phys.Addr(pg<<phys.PageShift), n*phys.PageSize), Perm: p}
	}
	layouts := [2][]EPTMapping{
		{page(4, 1, PermRX), page(8, 8, PermRW)},
		{page(0, 2, PermR), page(2, 4, PermRWX), page(20, 2, PermRW)},
	}
	want := [2]Perm{PermRX, PermRWX}
	e := NewEPT()
	const addr = 4 << phys.PageShift
	for i := 0; i < 64; i++ {
		gen := e.Generation()
		if _, err := e.Replace(phys.AllMemory, layouts[i%2], nil); err != nil {
			t.Fatal(err)
		}
		if e.Generation() != gen+1 {
			t.Fatalf("replace %d moved the generation %d -> %d, want one bump", i, gen, e.Generation())
		}
		if p := e.Lookup(addr); p != want[i%2] {
			t.Fatalf("replace %d: Lookup(%#x) = %v, want %v", i, addr, p, want[i%2])
		}
	}
}

// sameTable reports whether a and b are the same installed table (the
// same backing array), not merely equal ones.
func sameTable(a, b []EPTMapping) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestEPTReplaceEqualTable: same filter, same pointer, nothing reported,
// generation still moves — and a table a reader already holds never
// changes, whether the next Replace equals it or not. The runs are handed over unmerged and
// from a buffer that is then overwritten, as the backends' pooled
// scratch is.
func TestEPTReplaceEqualTable(t *testing.T) {
	page := func(pg uint64, n uint64, p Perm) EPTMapping {
		return EPTMapping{Region: phys.MakeRegion(phys.Addr(pg<<phys.PageShift), n*phys.PageSize), Perm: p}
	}
	scratch := []EPTMapping{page(4, 1, PermRX), page(8, 4, PermRW), page(12, 4, PermRW), page(30, 1, PermNone)}
	want := []EPTMapping{page(4, 1, PermRX), page(8, 8, PermRW)}
	e := NewEPT()
	if ext, err := e.Replace(phys.AllMemory, scratch, nil); err != nil || !slices.Equal(ext, want) {
		t.Fatalf("first Replace reported %v, err %v; want %v", ext, err, want)
	}
	held, gen := e.tab, e.Generation()
	if ext, err := e.Replace(phys.AllMemory, scratch, nil); err != nil || len(ext) != 0 {
		t.Fatalf("an equal Replace reported %v, err %v; want nothing", ext, err)
	}
	if !sameTable(e.tab, held) {
		t.Error("an equal Replace installed a new table")
	}
	if e.Generation() != gen+1 {
		t.Errorf("an equal Replace moved the generation from %d to %d, want one bump", gen, e.Generation())
	}
	unmapped := []EPTMapping{page(4, 1, PermNone), page(8, 8, PermNone)}
	if ext, err := e.Replace(phys.AllMemory, nil, nil); err != nil || !slices.Equal(ext, unmapped) {
		t.Fatalf("emptying Replace reported %v, err %v; want %v", ext, err, unmapped)
	}
	empty := e.tab
	if ext, err := e.Replace(phys.AllMemory, scratch[3:], nil); err != nil || len(ext) != 0 { // only a PermNone run: still empty
		t.Fatalf("an empty Replace of an empty table reported %v, err %v", ext, err)
	}
	if !sameTable(e.tab, empty) || e.Generation() != gen+3 || e.Mappings() != nil {
		t.Errorf("an empty Replace of an empty table: table moved %v, generation %d (want %d), mappings %v",
			!sameTable(e.tab, empty), e.Generation(), gen+3, e.Mappings())
	}
	if _, err := e.Replace(phys.AllMemory, scratch, nil); err != nil {
		t.Fatal(err)
	}
	if sameTable(e.tab, held) {
		t.Error("an unequal Replace reused a table it had retired")
	}
	for i := range scratch {
		scratch[i] = page(100, 1, PermRWX) // the caller's buffer is the caller's again
	}
	if got := e.Mappings(); !reflect.DeepEqual(got, want) {
		t.Errorf("table follows the caller's buffer: %v, want %v", got, want)
	}
	if !reflect.DeepEqual(held, want) {
		t.Errorf("the table a reader held across the Replaces changed: %v, want %v", held, want)
	}
	big := make([]EPTMapping, 100) // past the stack buffer
	for i := range big {
		big[i] = page(uint64(2*i), 1, PermR)
	}
	for range 2 {
		if _, err := e.Replace(phys.AllMemory, big, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Mappings(); !reflect.DeepEqual(got, big) {
		t.Errorf("a %d-run table came back as %d runs", len(big), len(got))
	}
}
