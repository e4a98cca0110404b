package hw

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/tyche-sim/tyche/internal/phys"
)

// PhysMem is the machine's physical memory. All accesses are by physical
// address; the monitor reasons exclusively about physical names (§3.2).
//
// PhysMem performs no access control itself: cores and DMA engines check
// their filters before touching it. The monitor accesses it directly
// (the monitor is the most privileged software on the machine).
//
// Memory is held as one page frame per page, made on the page's first
// write: a page nothing has written has no frame and reads as zeros
// through one shared zero page, so a machine costs the host only the
// pages its software wrote. Accesses walk page by page, so one that
// crosses a page boundary behaves as it would on flat memory. A scrub
// (Zero) clears the frames it covers in place and never releases one:
// the pages a domain used are the pages its successor will use.
//
// Memory is shared by every core and DMA engine, so each data operation
// holds an RWMutex — the simulator's stand-in for a coherent memory
// bus. Isolation between domains comes from the access filters, not
// from this lock; it only keeps Go-level access to the frames defined
// when cores genuinely race. A frame is made under the exclusive lock
// its write already holds.
//
// Every page also carries a write version, whether or not it has a
// frame: a counter bumped inside the exclusive section of every
// operation that changes (or scrubs) the page's bytes.
// A core's decoded-page cache (cpu.go) keeps instructions it read at
// version v and reuses them for as long as one atomic load still says
// v, so an instruction fetch takes no lock. The ordering this gives is
// the one the RWMutex alone gave: a fetch that observes a bump re-reads
// under the read lock and sees the written bytes; a fetch that does not
// observe it executes the old instruction, which is that fetch ordered
// before the write. Writes a core must not miss are ordered before its
// fetch by something else — the core's own earlier store (same
// goroutine), or the monitor's synchronisation between a write and the
// Run that follows it (CopyInto before Launch, Zero after the grace
// period, DMA before its IRQ is taken) — and those are always observed,
// because the bump happens before the writer's Unlock.
type PhysMem struct {
	mu   sync.RWMutex
	size uint64
	// frames holds one frame per page, indexed by page number; nil
	// until the page's first write.
	frames []*[phys.PageSize]byte
	// vers holds one write version per page, indexed by page number.
	vers []atomic.Uint64
}

// zeroPage is what every frameless page reads as. Nothing writes it.
var zeroPage [phys.PageSize]byte

// NewPhysMem returns size bytes of zeroed physical memory, none of it
// backed by a frame yet. size must be page-aligned and non-zero.
func NewPhysMem(size uint64) (*PhysMem, error) {
	if size == 0 || size%phys.PageSize != 0 {
		return nil, fmt.Errorf("hw: memory size %#x not page-aligned", size)
	}
	return &PhysMem{
		size:   size,
		frames: make([]*[phys.PageSize]byte, size/phys.PageSize),
		vers:   make([]atomic.Uint64, size/phys.PageSize),
	}, nil
}

// Size returns the total bytes of physical memory.
func (m *PhysMem) Size() uint64 { return m.size }

func (m *PhysMem) check(a phys.Addr, n uint64) error {
	if uint64(a) >= m.size || m.size-uint64(a) < n {
		return fmt.Errorf("hw: physical access %v+%d out of bounds (mem %#x)", a, n, m.size)
	}
	return nil
}

// page returns page pg's bytes for reading: its frame, or the zero page
// if it has none. The caller holds mu.
func (m *PhysMem) page(pg uint64) *[phys.PageSize]byte {
	if f := m.frames[pg]; f != nil {
		return f
	}
	return &zeroPage
}

// frame returns page pg's frame for writing, making it on first use.
// The caller holds mu exclusively.
func (m *PhysMem) frame(pg uint64) *[phys.PageSize]byte {
	f := m.frames[pg]
	if f == nil {
		f = new([phys.PageSize]byte)
		m.frames[pg] = f
	}
	return f
}

// read copies memory starting at a into buf, page by page. The caller
// has checked bounds and holds mu.
func (m *PhysMem) read(a phys.Addr, buf []byte) {
	for len(buf) > 0 {
		n := copy(buf, m.page(a.Page())[uint64(a)%phys.PageSize:])
		buf, a = buf[n:], a+phys.Addr(n)
	}
}

// write copies buf into memory starting at a, page by page, and bumps
// each page it touches. The caller has checked bounds and holds mu
// exclusively.
func (m *PhysMem) write(a phys.Addr, buf []byte) {
	for len(buf) > 0 {
		pg := a.Page()
		n := copy(m.frame(pg)[uint64(a)%phys.PageSize:], buf)
		m.vers[pg].Add(1)
		buf, a = buf[n:], a+phys.Addr(n)
	}
}

// version returns page pg's write-version counter.
func (m *PhysMem) version(pg uint64) *atomic.Uint64 { return &m.vers[pg] }

// fetchWord reads the 8-byte instruction word at a together with the
// write version of a's page, both under one hold of the read lock, so
// the word is the page's content at exactly that version. The word must
// not cross a page boundary.
func (m *PhysMem) fetchWord(a phys.Addr) (word [InstrSize]byte, ver uint64, err error) {
	if err := m.check(a, InstrSize); err != nil {
		return word, 0, err
	}
	m.mu.RLock()
	m.read(a, word[:])
	ver = m.vers[a.Page()].Load()
	m.mu.RUnlock()
	return word, ver, nil
}

// ReadAt copies memory starting at a into buf.
func (m *PhysMem) ReadAt(a phys.Addr, buf []byte) error {
	if err := m.check(a, uint64(len(buf))); err != nil {
		return err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.read(a, buf)
	return nil
}

// WriteAt copies buf into memory starting at a.
func (m *PhysMem) WriteAt(a phys.Addr, buf []byte) error {
	if err := m.check(a, uint64(len(buf))); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.write(a, buf)
	return nil
}

// Read64 loads a little-endian 64-bit word at a.
func (m *PhysMem) Read64(a phys.Addr) (uint64, error) {
	if err := m.check(a, 8); err != nil {
		return 0, err
	}
	var w [8]byte
	m.mu.RLock()
	m.read(a, w[:])
	m.mu.RUnlock()
	return binary.LittleEndian.Uint64(w[:]), nil
}

// Write64 stores a little-endian 64-bit word at a.
func (m *PhysMem) Write64(a phys.Addr, v uint64) error {
	if err := m.check(a, 8); err != nil {
		return err
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.write(a, w[:])
	return nil
}

// ReadByteAt loads the byte at a.
func (m *PhysMem) ReadByteAt(a phys.Addr) (byte, error) {
	if err := m.check(a, 1); err != nil {
		return 0, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.page(a.Page())[uint64(a)%phys.PageSize], nil
}

// WriteByteAt stores b at a.
func (m *PhysMem) WriteByteAt(a phys.Addr, b byte) error {
	if err := m.check(a, 1); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.frame(a.Page())[uint64(a)%phys.PageSize] = b
	m.vers[a.Page()].Add(1)
	return nil
}

// Zero clears the region r. It is used by the monitor's zeroing
// revocation policy; callers charge the cycle cost via the cost model,
// the same for a page that has no frame (which it leaves frameless) as
// for one it clears. It bumps every page of r either way, and releases
// no frame.
func (m *PhysMem) Zero(r phys.Region) error {
	if err := m.check(r.Start, r.Size()); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for a := r.Start; a < r.End; {
		pg := a.Page()
		off := uint64(a) % phys.PageSize
		n := min(phys.PageSize-off, uint64(r.End-a))
		if f := m.frames[pg]; f != nil {
			clear(f[off : off+n])
		}
		m.vers[pg].Add(1)
		a += phys.Addr(n)
	}
	return nil
}

// WriteRegionTo writes region r's bytes to w under the read lock, one
// Write per page, copying nothing: for a consumer that only reads them
// as they pass, such as the hash a domain's measurement is computed in.
// w must not retain the slices it is handed.
func (m *PhysMem) WriteRegionTo(w io.Writer, r phys.Region) error {
	if err := m.check(r.Start, r.Size()); err != nil {
		return err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for a := r.Start; a < r.End; {
		off := uint64(a) % phys.PageSize
		n := min(phys.PageSize-off, uint64(r.End-a))
		if _, err := w.Write(m.page(a.Page())[off : off+n]); err != nil {
			return err
		}
		a += phys.Addr(n)
	}
	return nil
}

// View returns a read-only snapshot copy of region r.
func (m *PhysMem) View(r phys.Region) ([]byte, error) {
	if err := m.check(r.Start, r.Size()); err != nil {
		return nil, err
	}
	out := make([]byte, r.Size())
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.read(r.Start, out)
	return out, nil
}
