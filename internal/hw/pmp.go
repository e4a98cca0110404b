package hw

import (
	"fmt"

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

// PMP models a per-core PMP register file with a fixed number of
// entries. The fixed entry budget is the central constraint the paper
// calls out for the RISC-V backend: "PMP only supports a fixed number of
// segments, which requires a careful memory layout of trust domains and
// validation by the monitor" (§4).
type PMP struct {
	entries []PMPEntry
	gen     uint64
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

// Lock marks entry i as locked; it must already be programmed.
func (p *PMP) Lock(i int) error {
	if i < 0 || i >= len(p.entries) {
		return fmt.Errorf("hw: pmp entry %d out of range", i)
	}
	if !p.entries[i].used {
		return fmt.Errorf("hw: cannot lock unprogrammed pmp entry %d", i)
	}
	p.entries[i].Locked = true
	p.gen++
	return nil
}

// Replace makes segs the unit's whole unlocked contents in one step:
// segs go to consecutive entries from index from and every other
// unlocked entry is deprogrammed, with one generation bump. Only entries whose contents differ are
// written; their indexes are returned in ascending order, reusing buf's
// storage (callers charge PMPWrite per entry written). The generation
// moves when the file held an unlocked entry or segs is non-empty,
// whether or not any entry differs. If a target entry is out of range or
// locked, or a region is invalid or not encodable, Replace returns an
// error and leaves the file and the generation unchanged.
func (p *PMP) Replace(from int, segs []EPTMapping, buf []int) (wrote []int, err error) {
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
		p.gen++
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
	for _, e := range p.entries {
		if e.used && e.Region.Contains(a) {
			return e.Perm
		}
	}
	return PermNone
}

// Generation implements AccessFilter.
func (p *PMP) Generation() uint64 { return p.gen }
