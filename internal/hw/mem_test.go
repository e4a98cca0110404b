package hw

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
)

// frameCount is how many of m's pages have a frame.
func frameCount(m *PhysMem) int {
	n := 0
	for _, f := range m.frames {
		if f != nil {
			n++
		}
	}
	return n
}

// TestNewPhysMemFootprint pins what a machine's memory costs the host
// before anything is written: one frame pointer and one write version
// per page, 16 B, whatever the configured size. TotalAlloc counts every
// goroutine's allocations, and a runtime thread start inside the window
// adds about 5 KB, so the smallest of three constructions is judged:
// other goroutines only add bytes, so a NewPhysMem that really
// allocates more fails every attempt.
func TestNewPhysMemFootprint(t *testing.T) {
	const size = 32 << 20
	pages := uint64(size / phys.PageSize)
	got := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := NewPhysMem(size)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(m)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
		if n := frameCount(m); n != 0 {
			t.Errorf("a new memory has %d frames, want 0", n)
		}
	}
	// The PhysMem header itself is the only allowance beyond 16 B/page.
	if limit := 16*pages + 256; got > limit {
		t.Errorf("NewPhysMem(%d MiB) allocated %d B (%.2f B/page), want at most %d", size>>20, got,
			float64(got)/float64(pages), limit)
	}
}

// TestUntouchedPagesStayFrameless: reading, scrubbing, viewing, hashing
// or fetching from a page nobody wrote gives zeros and makes no frame;
// a write makes frames for exactly the pages it touches.
func TestUntouchedPagesStayFrameless(t *testing.T) {
	m, err := NewPhysMem(8 * phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	whole := phys.MakeRegion(0, m.Size())
	buf := make([]byte, 3*phys.PageSize)
	if err := m.ReadAt(phys.PageSize-8, buf); err != nil || !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatalf("ReadAt = %v, zero %v", err, bytes.Equal(buf, make([]byte, len(buf))))
	}
	if v, err := m.Read64(2*phys.PageSize - 4); err != nil || v != 0 {
		t.Fatalf("Read64 = %#x, %v", v, err)
	}
	if b, err := m.ReadByteAt(5 * phys.PageSize); err != nil || b != 0 {
		t.Fatalf("ReadByteAt = %#x, %v", b, err)
	}
	if err := m.Zero(whole); err != nil {
		t.Fatal(err)
	}
	if v, err := m.View(whole); err != nil || !bytes.Equal(v, make([]byte, m.Size())) {
		t.Fatalf("View: %v", err)
	}
	var h bytes.Buffer
	if err := m.WriteRegionTo(&h, whole); err != nil || !bytes.Equal(h.Bytes(), make([]byte, m.Size())) {
		t.Fatalf("WriteRegionTo: %v, %d bytes", err, h.Len())
	}
	if w, _, err := m.fetchWord(7 * phys.PageSize); err != nil || w != [InstrSize]byte{} {
		t.Fatalf("fetchWord = % x, %v", w, err)
	}
	if n := frameCount(m); n != 0 {
		t.Fatalf("reads, scrubs, views, hashes and fetches made %d frames, want 0", n)
	}

	// A word across the boundary of pages 1 and 2, a byte on page 4 and
	// a buffer over the end of page 6 into page 7.
	if err := m.Write64(2*phys.PageSize-4, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteByteAt(4*phys.PageSize+9, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt(7*phys.PageSize-1, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt(3*phys.PageSize, nil); err != nil {
		t.Fatal(err)
	}
	for pg, f := range m.frames {
		want := pg == 1 || pg == 2 || pg == 4 || pg == 6 || pg == 7
		if (f != nil) != want {
			t.Errorf("page %d has a frame: %v, want %v", pg, f != nil, want)
		}
	}
}

// TestScrubKeepsFrames: Zero clears a written page in place and keeps
// its frame. Releasing it would be paid for at once: a migration hop
// scrubs the departed copy's pages and the next restore to that node
// writes the same pages again, so a release-on-scrub memory re-creates
// every frame per hop (migrate_hops' alloc_kb_per_op read 46.1 → 54.1
// with it).
func TestScrubKeepsFrames(t *testing.T) {
	m, err := NewPhysMem(4 * phys.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt(phys.PageSize, bytes.Repeat([]byte{0xab}, 2*phys.PageSize)); err != nil {
		t.Fatal(err)
	}
	f1, f2 := m.frames[1], m.frames[2]
	if err := m.Zero(phys.MakeRegion(phys.PageSize, 2*phys.PageSize)); err != nil {
		t.Fatal(err)
	}
	if m.frames[1] != f1 || m.frames[2] != f2 {
		t.Fatal("Zero replaced or released a frame")
	}
	if *f1 != zeroPage || *f2 != zeroPage {
		t.Fatal("Zero left bytes behind")
	}
}

// Operations of FuzzPhysMem's scripts. Each is an op byte, a 2-byte
// address, a 2-byte length (or value) and a fill byte; the address
// ranges past the end of memory, so some accesses are out of bounds.
const (
	pmWriteAt = iota
	pmReadAt
	pmRead64
	pmWrite64
	pmReadByte
	pmWriteByte
	pmZero
	pmView
	pmWriteRegionTo
	pmFetchWord
	pmOps
)

const (
	pmPages = 4
	pmSize  = pmPages * phys.PageSize
)

// pmOp encodes one script operation.
func pmOp(op byte, a, n uint16, fill byte) []byte {
	return []byte{op, byte(a), byte(a >> 8), byte(n), byte(n >> 8), fill}
}

func pmScript(ops ...[]byte) []byte { return bytes.Join(ops, nil) }

// FuzzPhysMem plays random operation sequences against PhysMem and a
// flat byte slice with one version counter per page. After every
// operation the bytes must equal the model's, every write or scrub must
// have bumped each page it touches exactly once and nothing else must
// have bumped, a page must have a frame exactly when something wrote
// it, and an out-of-bounds access must be refused having changed
// nothing.
func FuzzPhysMem(f *testing.F) {
	pg := uint16(phys.PageSize)
	for _, s := range [][]byte{
		// Page-crossing words and buffers.
		pmScript(pmOp(pmWrite64, pg-4, 0, 0x11), pmOp(pmRead64, pg-4, 0, 0), pmOp(pmFetchWord, pg-4, 0, 0),
			pmOp(pmWriteAt, pg-3, 2*pg+7, 0x22), pmOp(pmReadAt, pg-9, 3*pg, 0), pmOp(pmView, 1, 3*pg, 0)),
		// The last page of memory.
		pmScript(pmOp(pmWriteAt, pmSize-8, 8, 0x33), pmOp(pmRead64, pmSize-8, 0, 0),
			pmOp(pmWriteByte, pmSize-1, 0, 0x44), pmOp(pmFetchWord, pmSize-8, 0, 0),
			pmOp(pmZero, pmSize-pg, pg, 0), pmOp(pmWriteRegionTo, pmSize-16, 16, 0)),
		// Reads, scrubs, views and hashes of untouched pages.
		pmScript(pmOp(pmReadAt, 0, pmSize, 0), pmOp(pmZero, pg/2, 2*pg, 0), pmOp(pmView, 0, pmSize, 0),
			pmOp(pmWriteRegionTo, 0, pmSize, 0), pmOp(pmReadByte, 3*pg, 0, 0), pmOp(pmFetchWord, 2*pg, 0, 0)),
		// Out of bounds: refused, no frame made.
		pmScript(pmOp(pmWrite64, pmSize-4, 0, 0x55), pmOp(pmWriteAt, pmSize-1, 2, 0x66),
			pmOp(pmWriteByte, pmSize, 0, 0x77), pmOp(pmZero, pmSize-pg, pg+1, 0), pmOp(pmReadAt, pmSize, 0, 0)),
		// A scrub of written bytes, then a rewrite.
		pmScript(pmOp(pmWriteAt, 100, 3*pg, 0x88), pmOp(pmZero, pg+5, pg, 0), pmOp(pmWriteAt, pg, 10, 0x99)),
	} {
		f.Add(s)
	}
	f.Fuzz(runPhysMemScript)
}

// pmPattern counts up from 0, wrapping; pmZeros is what a scrub writes.
var pmPattern, pmZeros = func() ([]byte, []byte) {
	p := make([]byte, 256+pmSize+16)
	for i := range p {
		p[i] = byte(i)
	}
	return p, make([]byte, pmSize+16)
}()

func runPhysMemScript(t *testing.T, script []byte) {
	m, err := NewPhysMem(pmSize)
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, pmSize)
	vers := make([]uint64, pmPages)
	written := make([]bool, pmPages)
	for i := 0; len(script) >= 6 && i < 64; i++ {
		op := script[0] % pmOps
		a := phys.Addr(binary.LittleEndian.Uint16(script[1:]) % (pmSize + 16))
		n := uint64(binary.LittleEndian.Uint16(script[3:]) % (pmSize + 16))
		fill := script[5]
		script = script[6:]
		switch op {
		case pmRead64, pmWrite64:
			n = 8
		case pmReadByte, pmWriteByte:
			n = 1
		case pmFetchWord:
			n = InstrSize
		}
		buf := pmPattern[fill:][:n] // fill, fill+1, ...
		oob := uint64(a) >= pmSize || pmSize-uint64(a) < n
		r := phys.Region{Start: a, End: a + phys.Addr(n)}
		var got []byte // what a read returned
		var ver uint64 // fetchWord's version
		read := true
		switch op {
		case pmWriteAt:
			read = false
			err = m.WriteAt(a, buf)
		case pmReadAt:
			got = make([]byte, n)
			err = m.ReadAt(a, got)
		case pmRead64:
			var v uint64
			v, err = m.Read64(a)
			got = binary.LittleEndian.AppendUint64(nil, v)
		case pmWrite64:
			read = false
			err = m.Write64(a, binary.LittleEndian.Uint64(buf))
		case pmReadByte:
			var b byte
			b, err = m.ReadByteAt(a)
			got = []byte{b}
		case pmWriteByte:
			read = false
			err = m.WriteByteAt(a, buf[0])
		case pmZero:
			read = false
			buf = pmZeros[:n]
			err = m.Zero(r)
		case pmView:
			got, err = m.View(r)
		case pmWriteRegionTo:
			var w bytes.Buffer
			err = m.WriteRegionTo(&w, r)
			got = w.Bytes()
		case pmFetchWord:
			var w [InstrSize]byte
			w, ver, err = m.fetchWord(a)
			got = w[:]
		}
		if oob {
			if err == nil {
				t.Fatalf("op %d %d at %v+%d: out of bounds but not refused", i, op, a, n)
			}
		} else if err != nil {
			t.Fatalf("op %d %d at %v+%d: %v", i, op, a, n, err)
		} else if read {
			if want := model[a : uint64(a)+n]; !bytes.Equal(got, want) {
				t.Fatalf("op %d %d at %v+%d read % x, want % x", i, op, a, n, got, want)
			}
			if op == pmFetchWord && ver != vers[a.Page()] {
				t.Fatalf("op %d fetchWord at %v: version %d, want %d", i, a, ver, vers[a.Page()])
			}
		} else {
			copy(model[a:], buf)
			for p := uint64(a) / phys.PageSize; n > 0 && p <= (uint64(a)+n-1)/phys.PageSize; p++ {
				vers[p]++
				written[p] = written[p] || op != pmZero
			}
		}
		for p := range vers {
			if v := m.vers[p]; v != vers[p] {
				t.Fatalf("op %d %d at %v+%d: page %d at version %d, want %d", i, op, a, n, p, v, vers[p])
			}
			if (m.frames[p] != nil) != written[p] {
				t.Fatalf("op %d %d at %v+%d: page %d has a frame: %v, want %v", i, op, a, n, p, m.frames[p] != nil, written[p])
			}
		}
		// A read changes no byte unless it makes a frame or bumps a
		// version, which the loop above catches: only a write or scrub,
		// refused or not, needs the whole memory compared.
		if !read && !sameBytes(m, model) {
			t.Fatalf("op %d %d at %v+%d: memory differs from the model", i, op, a, n)
		}
	}
}

// sameBytes reports whether m holds exactly model's bytes.
func sameBytes(m *PhysMem, model []byte) bool {
	for p := range m.frames {
		if !bytes.Equal(m.page(uint64(p))[:], model[p*phys.PageSize:(p+1)*phys.PageSize]) {
			return false
		}
	}
	return true
}
