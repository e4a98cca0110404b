package hw

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/tyche-sim/tyche/internal/phys"
)

// DefaultPMPEntries is the number of PMP entries per core on typical
// RISC-V silicon (the privileged spec allows 0, 16, or 64; 16 is common,
// and machine-mode firmware reserves some for itself — we model 16 with
// the monitor free to reserve entries).
const DefaultPMPEntries = 16

// PMPEntry is one RISC-V physical memory protection entry: an address
// range with permissions. The hardware matches entries in ascending
// priority order (lowest index wins), which the Check method reproduces.
type PMPEntry struct {
	Region phys.Region
	Perm   Perm
	// Locked entries cannot be reprogrammed until reset; the monitor
	// locks the entries protecting its own memory (machine-mode
	// self-protection, as Keystone does).
	Locked bool
	used   bool
}

// Used reports whether the entry holds an active mapping.
func (e PMPEntry) Used() bool { return e.used }

// PMP models a per-core PMP register file with a fixed number of
// entries. The fixed entry budget is the central constraint the paper
// calls out for the RISC-V backend: "PMP only supports a fixed number of
// segments, which requires a careful memory layout of trust domains and
// validation by the monitor" (§4).
// The register file is behind an RWMutex because the PMP backend
// reprograms *other* cores' units when a domain's footprint changes
// while those cores may be executing guest code against them.
type PMP struct {
	mu      sync.RWMutex
	entries []PMPEntry
	gen     atomic.Uint64
}

// NewPMP returns a PMP unit with n entries (n must be positive) using
// TOR encoding.
func NewPMP(n int) *PMP {
	if n <= 0 {
		panic("hw: PMP entry count must be positive")
	}
	return &PMP{entries: make([]PMPEntry, n)}
}

// NumEntries returns the total entry budget.
func (p *PMP) NumEntries() int { return len(p.entries) }

// FreeEntries returns how many entries are unprogrammed.
func (p *PMP) FreeEntries() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	free := 0
	for _, e := range p.entries {
		if !e.used {
			free++
		}
	}
	return free
}

// IsNAPOT reports whether r is a naturally aligned power-of-two-sized
// region, i.e. encodable in a single NAPOT PMP entry.
func IsNAPOT(r phys.Region) bool {
	size := r.Size()
	if size == 0 || bits.OnesCount64(size) != 1 {
		return false
	}
	return uint64(r.Start)%size == 0
}

// Program writes entry i. Fails if i is out of range, the entry is
// locked or the region is invalid.
func (p *PMP) Program(i int, r phys.Region, perm Perm) error {
	if i < 0 || i >= len(p.entries) {
		return fmt.Errorf("hw: pmp entry %d out of range (have %d)", i, len(p.entries))
	}
	if err := r.Validate(); err != nil {
		return fmt.Errorf("hw: pmp program: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.entries[i].Locked {
		return fmt.Errorf("hw: pmp entry %d is locked", i)
	}
	p.entries[i] = PMPEntry{Region: r, Perm: perm, used: true}
	p.gen.Add(1)
	return nil
}

// ClearEntry deprograms entry i unless it is locked.
func (p *PMP) ClearEntry(i int) error {
	if i < 0 || i >= len(p.entries) {
		return fmt.Errorf("hw: pmp entry %d out of range", i)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.entries[i].Locked {
		return fmt.Errorf("hw: pmp entry %d is locked", i)
	}
	p.entries[i] = PMPEntry{}
	p.gen.Add(1)
	return nil
}

// Lock marks entry i as locked; it must already be programmed.
func (p *PMP) Lock(i int) error {
	if i < 0 || i >= len(p.entries) {
		return fmt.Errorf("hw: pmp entry %d out of range", i)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.entries[i].used {
		return fmt.Errorf("hw: cannot lock unprogrammed pmp entry %d", i)
	}
	p.entries[i].Locked = true
	p.gen.Add(1)
	return nil
}

// Replace makes segs the unit's whole unlocked contents in one step:
// segs go to consecutive entries from index from and every other
// unlocked entry is deprogrammed, under one write lock and one
// generation bump. A core checking accesses against the unit on another
// host thread therefore sees the old register file or the new one, never
// a cleared or half-written one. Only entries whose contents differ are
// written; their indexes are returned in ascending order, reusing buf's
// storage (callers charge PMPWrite per entry written). The generation
// moves when the file held an unlocked entry or segs is non-empty,
// whether or not any entry differs. If a target entry is out of range or
// locked, or a region is invalid or not encodable, Replace returns an
// error and leaves the file and the generation unchanged.
func (p *PMP) Replace(from int, segs []EPTMapping, buf []int) (wrote []int, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if from < 0 || from+len(segs) > len(p.entries) {
		return buf[:0], fmt.Errorf("hw: pmp entries %d..%d out of range (have %d)", from, from+len(segs)-1, len(p.entries))
	}
	for i, s := range segs {
		if err := s.Region.Validate(); err != nil {
			return buf[:0], fmt.Errorf("hw: pmp replace: %w", err)
		}
		if p.entries[from+i].Locked {
			return buf[:0], fmt.Errorf("hw: pmp entry %d is locked", from+i)
		}
	}
	bump := len(segs) > 0
	wrote = buf[:0]
	for i := range p.entries {
		e := &p.entries[i]
		if e.Locked {
			continue
		}
		bump = bump || e.used
		want := PMPEntry{}
		if k := i - from; k >= 0 && k < len(segs) {
			want = PMPEntry{Region: segs[k].Region, Perm: segs[k].Perm, used: true}
		}
		if *e != want {
			*e = want
			wrote = append(wrote, i)
		}
	}
	if bump {
		p.gen.Add(1)
	}
	return wrote, nil
}

// Check implements AccessFilter: the lowest-indexed matching entry
// decides; no match denies (machine-mode default for non-M software).
func (p *PMP) Check(a phys.Addr, want Perm) bool {
	return p.Lookup(a).Allows(want)
}

// Lookup implements AccessFilter.
func (p *PMP) Lookup(a phys.Addr) Perm {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, e := range p.entries {
		if e.used && e.Region.Contains(a) {
			return e.Perm
		}
	}
	return PermNone
}

// Generation implements AccessFilter.
func (p *PMP) Generation() uint64 { return p.gen.Load() }

// Entries returns a copy of the register file for inspection.
func (p *PMP) Entries() []PMPEntry {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]PMPEntry, len(p.entries))
	copy(out, p.entries)
	return out
}

// --- pmpaddr register encodings ---------------------------------------
//
// Real RISC-V PMP entries are programmed through pmpaddr CSRs holding
// physical address bits [55:2]. Two range encodings matter here:
//
//   NAPOT: a naturally aligned power-of-two region of size 2^(z+3)
//   bytes is encoded in one register as (base>>2) | (2^z - 1) — the
//   size is carried by the count of trailing one bits. Minimum
//   encodable size is 8 bytes (z = 0).
//
//   TOR (top of range): entry i covers [pmpaddr[i-1]<<2, pmpaddr[i]<<2),
//   so an arbitrary 4-byte-aligned range takes a register pair.
//
// The simulator stores regions directly, but layout planning and the
// C5 entry-budget experiment reason about what silicon can express, so
// the codecs are exact.

// EncodeNAPOT encodes r as a single pmpaddr register value. r must be
// naturally aligned, power-of-two sized, and at least 8 bytes.
func EncodeNAPOT(r phys.Region) (uint64, error) {
	if !IsNAPOT(r) {
		return 0, fmt.Errorf("hw: region %v not NAPOT-encodable", r)
	}
	size := r.Size()
	if size < 8 {
		return 0, fmt.Errorf("hw: region %v below the 8-byte NAPOT minimum", r)
	}
	return uint64(r.Start)>>2 | (size>>3 - 1), nil
}

// DecodeNAPOT inverts EncodeNAPOT. An all-ones value (the whole
// address space, size 2^66 on RV64) is rejected: it is not
// representable as a Region.
func DecodeNAPOT(v uint64) (phys.Region, error) {
	z := bits.TrailingZeros64(^v) // count of trailing one bits
	if z >= 61 {
		return phys.Region{}, fmt.Errorf("hw: pmpaddr %#x: NAPOT size overflows the address space", v)
	}
	size := uint64(1) << (z + 3)
	base := (v &^ (uint64(1)<<z - 1)) << 2
	return phys.MakeRegion(phys.Addr(base), size), nil
}

// EncodeTOR encodes r as a (pmpaddr[i-1], pmpaddr[i]) register pair.
// Both bounds must be 4-byte aligned; any such non-empty range is
// encodable.
func EncodeTOR(r phys.Region) (lo, hi uint64, err error) {
	if r.Empty() {
		return 0, 0, fmt.Errorf("hw: tor encode: empty region %v", r)
	}
	if r.Start%4 != 0 || r.End%4 != 0 {
		return 0, 0, fmt.Errorf("hw: region %v not 4-byte aligned", r)
	}
	return uint64(r.Start) >> 2, uint64(r.End) >> 2, nil
}

// DecodeTOR inverts EncodeTOR. An empty range (hi <= lo) is an error:
// hardware treats such an entry as matching nothing.
func DecodeTOR(lo, hi uint64) (phys.Region, error) {
	if hi <= lo {
		return phys.Region{}, fmt.Errorf("hw: tor pair (%#x, %#x) is an empty range", lo, hi)
	}
	return phys.Region{Start: phys.Addr(lo << 2), End: phys.Addr(hi << 2)}, nil
}
