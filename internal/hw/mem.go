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
// Memory is shared by every core and DMA engine, so each data operation
// holds an RWMutex — the simulator's stand-in for a coherent memory
// bus. Isolation between domains comes from the access filters, not
// from this lock; it only keeps Go-level access to the backing array
// defined when cores genuinely race.
//
// Every page also carries a write version: a counter bumped inside the
// exclusive section of every operation that changes the page's bytes.
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
	data []byte
	// vers holds one write version per page, indexed by page number.
	vers []atomic.Uint64
}

// NewPhysMem allocates size bytes of zeroed physical memory. size must be
// page-aligned and non-zero.
func NewPhysMem(size uint64) (*PhysMem, error) {
	if size == 0 || size%phys.PageSize != 0 {
		return nil, fmt.Errorf("hw: memory size %#x not page-aligned", size)
	}
	return &PhysMem{
		data: make([]byte, size),
		vers: make([]atomic.Uint64, size/phys.PageSize),
	}, nil
}

// Size returns the total bytes of physical memory.
func (m *PhysMem) Size() uint64 { return uint64(len(m.data)) }

func (m *PhysMem) check(a phys.Addr, n uint64) error {
	if uint64(a) >= uint64(len(m.data)) || uint64(len(m.data))-uint64(a) < n {
		return fmt.Errorf("hw: physical access %v+%d out of bounds (mem %#x)", a, n, len(m.data))
	}
	return nil
}

// bump advances the write version of every page [a, a+n) touches. The
// caller holds mu exclusively and has just changed those bytes.
func (m *PhysMem) bump(a phys.Addr, n uint64) {
	if n == 0 {
		return
	}
	for pg := a.Page(); pg <= (a + phys.Addr(n) - 1).Page(); pg++ {
		m.vers[pg].Add(1)
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
	copy(word[:], m.data[a:])
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
	copy(buf, m.data[a:])
	return nil
}

// WriteAt copies buf into memory starting at a.
func (m *PhysMem) WriteAt(a phys.Addr, buf []byte) error {
	if err := m.check(a, uint64(len(buf))); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	copy(m.data[a:], buf)
	m.bump(a, uint64(len(buf)))
	return nil
}

// Read64 loads a little-endian 64-bit word at a.
func (m *PhysMem) Read64(a phys.Addr) (uint64, error) {
	if err := m.check(a, 8); err != nil {
		return 0, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return binary.LittleEndian.Uint64(m.data[a:]), nil
}

// Write64 stores a little-endian 64-bit word at a.
func (m *PhysMem) Write64(a phys.Addr, v uint64) error {
	if err := m.check(a, 8); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	binary.LittleEndian.PutUint64(m.data[a:], v)
	m.bump(a, 8)
	return nil
}

// ReadByteAt loads the byte at a.
func (m *PhysMem) ReadByteAt(a phys.Addr) (byte, error) {
	if err := m.check(a, 1); err != nil {
		return 0, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.data[a], nil
}

// WriteByteAt stores b at a.
func (m *PhysMem) WriteByteAt(a phys.Addr, b byte) error {
	if err := m.check(a, 1); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data[a] = b
	m.bump(a, 1)
	return nil
}

// Zero clears the region r. It is used by the monitor's zeroing
// revocation policy; callers charge the cycle cost via the cost model.
func (m *PhysMem) Zero(r phys.Region) error {
	if err := m.check(r.Start, r.Size()); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.data[r.Start:r.End])
	m.bump(r.Start, r.Size())
	return nil
}

// WriteRegionTo writes region r's bytes to w in one Write under the
// read lock, copying nothing: for a consumer that only reads them as
// they pass, such as the hash a domain's measurement is computed in. w
// must not retain the slice it is handed.
func (m *PhysMem) WriteRegionTo(w io.Writer, r phys.Region) error {
	if err := m.check(r.Start, r.Size()); err != nil {
		return err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, err := w.Write(m.data[r.Start:r.End])
	return err
}

// View returns a read-only snapshot copy of region r.
func (m *PhysMem) View(r phys.Region) ([]byte, error) {
	if err := m.check(r.Start, r.Size()); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]byte, r.Size())
	copy(out, m.data[r.Start:r.End])
	return out, nil
}
