// Package hw simulates the commodity hardware substrate the Tyche
// isolation monitor runs on: physical memory, CPU cores with privilege
// rings and a small deterministic ISA, two layers of memory access
// control (an OS-managed first level and a monitor-managed second level,
// standing in for page tables + EPT on x86_64 or PMP on RISC-V), TLBs,
// data caches with observable micro-architectural state, DMA-capable PCI
// devices behind an IOMMU, and a cycle-accurate cost model.
//
// The paper's monitor runs bare metal (§3.3, §4); a garbage-collected Go
// runtime cannot. This package is the substitution: it enforces the same
// access-control semantics on every memory, device, and control-transfer
// operation and charges architecturally plausible cycle costs, so that
// the monitor's enforcement behaviour and the relative performance shape
// of its mechanisms (VMFUNC vs VM-exit vs context switch, PMP slot
// pressure, cache-flush revocation policies) are preserved.
//
// A Machine — its memory, cores, filters, IOMMU, devices and clock — is
// used by one goroutine at a time and holds no lock. Several cores are
// stepped on that one goroutine, interleaved in simulated time;
// separate machines share nothing and may run on separate goroutines.
package hw

// CostModel holds the cycle costs charged for simulated hardware events.
// The defaults are drawn from published measurements on contemporary
// x86_64 parts (VM exits ~1000-1500 cycles, VMFUNC EPT switch ~100-150
// cycles [Hodor, ATC'19], syscall ~150 cycles, context switch measured in
// the low thousands) and are deliberately configurable: the experiments
// report *shapes* (ratios, crossovers), not absolute silicon numbers.
type CostModel struct {
	// ALUOp is the cost of a register-register arithmetic instruction.
	ALUOp uint64
	// MemHit is an L1-hit load or store.
	MemHit uint64
	// MemMiss is a load or store that misses the data cache.
	MemMiss uint64
	// TLBHit is the added cost of a translation that hits the TLB.
	TLBHit uint64
	// PageWalk is a first-level page-table walk on TLB miss.
	PageWalk uint64
	// EPTWalk is the added cost of the second-dimension walk when a
	// monitor-level filter (EPT) is active.
	EPTWalk uint64
	// VMExit is a trap from a domain into the monitor (VMCall, fault).
	VMExit uint64
	// VMEntry is the resume from monitor back into a domain.
	VMEntry uint64
	// VMFunc is a hardware-accelerated EPT-list switch that changes the
	// active second-level filter without exiting to the monitor.
	VMFunc uint64
	// Syscall is a ring-3 to ring-0 transition inside one domain.
	Syscall uint64
	// Sysret is the return from ring 0 to ring 3.
	Sysret uint64
	// MTrap is a trap into RISC-V machine mode (ecall + save).
	MTrap uint64
	// MRet is the return from machine mode.
	MRet uint64
	// PMPWrite is charged per PMP entry a reprogramming writes: one
	// whose contents change, including one deprogrammed. An entry left
	// as it was costs nothing.
	PMPWrite uint64
	// EPTUpdatePage is charged per page whose second-level permission
	// a rebuild changes, mapped or unmapped. A page left as it was
	// costs nothing.
	EPTUpdatePage uint64
	// TLBFlush is a full TLB invalidation on one core.
	TLBFlush uint64
	// CacheFlushLine is charged for every line resident when a cache is
	// flushed, clean or not (the model keeps no dirty bit).
	CacheFlushLine uint64
	// ZeroLine is zeroing one 64-byte line of memory (non-temporal store).
	ZeroLine uint64
	// IOMMUCheck is the IOMMU lookup charged per DMA page.
	IOMMUCheck uint64
	// SchedPick is the OS scheduler choosing the next runnable process.
	SchedPick uint64
	// CtxSave is saving/restoring one register file (process switch half).
	CtxSave uint64
}

// DefaultCostModel returns the calibrated default costs.
func DefaultCostModel() CostModel {
	return CostModel{
		ALUOp:          1,
		MemHit:         4,
		MemMiss:        42,
		TLBHit:         0,
		PageWalk:       24,
		EPTWalk:        36,
		VMExit:         1100,
		VMEntry:        800,
		VMFunc:         134,
		Syscall:        150,
		Sysret:         110,
		MTrap:          360,
		MRet:           220,
		PMPWrite:       18,
		EPTUpdatePage:  7,
		TLBFlush:       200,
		CacheFlushLine: 2,
		ZeroLine:       3,
		IOMMUCheck:     12,
		SchedPick:      400,
		CtxSave:        180,
	}
}

// Clock is a cycle counter. The machine's global clock aggregates one
// shard per core: each core advances only its own shard, the monitor
// and devices advance the global counter, and Cycles sums them all.
type Clock struct {
	cycles uint64
	// shards are per-core clocks registered at machine construction.
	shards []*Clock
}

// Advance adds n cycles to the clock.
func (c *Clock) Advance(n uint64) { c.cycles += n }

// Cycles returns the cycles elapsed since machine construction or the
// last Reset, summed across the clock and its shards.
func (c *Clock) Cycles() uint64 {
	total := c.cycles
	for _, s := range c.shards {
		total += s.cycles
	}
	return total
}

// AddShard registers s so its cycles count toward c's total. Only the
// machine constructor calls this.
func (c *Clock) AddShard(s *Clock) { c.shards = append(c.shards, s) }
