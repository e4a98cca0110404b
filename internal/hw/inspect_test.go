package hw

import "github.com/tyche-sim/tyche/internal/phys"

// Inspection the tests read the hardware model through beside its
// product API: counters, occupancy, latches and the single-instruction
// step.

// Touch records an access to a, returning true on hit.
func (c *Cache) Touch(a phys.Addr) bool {
	hit := c.touch(a)
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	return hit
}

// Resident returns the number of occupied line slots.
func (c *Cache) Resident() int {
	n := 0
	for i := range c.lines {
		if c.lines[i] != 0 {
			n++
		}
	}
	return n
}

// Stats returns hit/miss/flushed-line counters. The owning core adds
// its accesses when its Run or Step returns, so while it is inside a
// Run hits and misses lag.
func (c *Cache) Stats() (hits, misses, flushed uint64) {
	return c.hits, c.misses, c.flushedLines
}

// Reset zeroes the clock and all its shards.
func (c *Clock) Reset() {
	c.cycles = 0
	for _, s := range c.shards {
		s.cycles = 0
	}
}

// FaultCount returns the number of access faults taken.
func (c *Core) FaultCount() uint64 { return c.faults }

// Halted reports whether the core executed HLT and was not resumed.
func (c *Core) Halted() bool { return c.halted }

// Stalled reports whether the core took an injected hard stall. A
// stalled core raises TrapMachineCheck on every step until ClearStall.
func (c *Core) Stalled() bool { return c.stalled }

// Step executes a single instruction. It returns a trap describing any
// exit event; Trap.Kind==TrapNone means the instruction retired and
// execution may continue.
func (c *Core) Step() Trap {
	var t Trap
	if ins := c.hot(); ins != nil {
		c.exec(ins, &t)
	} else {
		c.step(&t)
	}
	return t
}

// Stats returns check/denial counters.
func (iu *IOMMU) Stats() (checks, denials uint64) {
	return iu.checks, iu.denials
}

// TimerArmed reports whether the timer is running.
func (c *Core) TimerArmed() bool { return c.timerArmed }

// DeviceByName returns the device with the lowest ID among those with
// the given name, or nil. Names need not be unique, so it walks the IDs
// in order rather than ranging over the map.
func (m *Machine) DeviceByName(name string) *Device {
	for i := 0; i < len(m.Devices); i++ {
		if d := m.Devices[phys.DeviceID(i)]; d != nil && d.Name == name {
			return d
		}
	}
	return nil
}

// EncryptedPages returns how many pages carry a non-plaintext key.
func (m *MKTME) EncryptedPages() int { return len(m.pageKey) }

// Len returns the number of cached entries.
func (t *TLB) Len() int {
	n := 0
	for i := range t.slots[:t.hi] {
		if t.slots[i].used {
			n++
		}
	}
	return n
}

// MappedPages returns the number of pages with any permission.
func (e *EPT) MappedPages() int {
	var n uint64
	for _, m := range e.tab {
		n += m.Region.Pages()
	}
	return int(n)
}

// FreeEntries returns how many entries are unprogrammed.
func (p *PMP) FreeEntries() int {
	free := 0
	for _, e := range p.entries {
		if !e.used {
			free++
		}
	}
	return free
}

// Entries returns a copy of the register file for inspection.
func (p *PMP) Entries() []PMPEntry {
	out := make([]PMPEntry, len(p.entries))
	copy(out, p.entries)
	return out
}

// Used reports whether the entry holds an active mapping.
func (e PMPEntry) Used() bool { return e.used }
