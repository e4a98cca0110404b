package hw

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// Config describes the machine to build.
type Config struct {
	// MemBytes is the physical memory size (page-aligned, required).
	MemBytes uint64
	// NumCores is the CPU core count (required, >=1).
	NumCores int
	// PMPEntries is the per-core PMP register count (0 selects
	// DefaultPMPEntries).
	PMPEntries int
	// IOMMUAllowByDefault boots the IOMMU into the permissive commodity
	// default; the monitor flips it off when it takes ownership.
	IOMMUAllowByDefault bool
	// Devices lists the PCI devices present at boot.
	Devices []DeviceConfig
	// MemoryEncryption fits the machine with an MKTME engine (the §4.2
	// physical-attack-resistance extension).
	MemoryEncryption bool
}

// maxCores bounds a machine's core count: a shootdown round names the
// cores it targets as one 64-bit mask.
const maxCores = 64

// DeviceConfig describes one device to instantiate.
type DeviceConfig struct {
	Name  string
	Class DeviceClass
}

// Machine is the simulated commodity machine: memory, cores, devices,
// IOMMU, and the shared cycle clock.
type Machine struct {
	Mem     *PhysMem
	Cores   []*Core
	Devices map[phys.DeviceID]*Device
	IOMMU   *IOMMU
	Clock   *Clock
	Cost    CostModel
	// Crypto is the MKTME engine (nil on machines without memory
	// encryption).
	Crypto *MKTME

	// irqs is the interrupt controller's pending queue.
	irqs []IRQ

	// fault is the optional fault injector (see fault.go).
	fault FaultInjector

	// tracer is the optional event trace (see trace.go in this package
	// and internal/trace).
	tracer *trace.Tracer

	// sdBatch, when non-nil, diverts shootdowns into a coalescing
	// accumulator instead of running them immediately (see
	// BeginShootdownBatch).
	sdBatch *shootdownBatch

	// sdBatchCache is the accumulator sdBatch arms — cached on the
	// machine (its region slice reused across batches) so arming is
	// allocation-free: the per-ring drain hot path pins 0 allocs/op.
	sdBatchCache shootdownBatch

	// ackSwallowed latches the seeded ackbug mutation (ack_bug.go) so
	// exactly one shootdown round per machine loses core 0's ack. Dead
	// weight in normal builds (ackDropOne is constant false).
	ackSwallowed bool
}

// NewMachine builds a machine from cfg.
func NewMachine(cfg Config) (*Machine, error) {
	if cfg.NumCores < 1 || cfg.NumCores > maxCores {
		return nil, fmt.Errorf("hw: machine needs 1 to %d cores, got %d", maxCores, cfg.NumCores)
	}
	mem, err := NewPhysMem(cfg.MemBytes)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		Mem:     mem,
		Devices: make(map[phys.DeviceID]*Device),
		IOMMU:   NewIOMMU(cfg.IOMMUAllowByDefault),
		Clock:   &Clock{},
		Cost:    DefaultCostModel(),
	}
	if cfg.MemoryEncryption {
		m.Crypto = NewMKTME(nil)
	}
	pmpN := cfg.PMPEntries
	if pmpN == 0 {
		pmpN = DefaultPMPEntries
	}
	for i := 0; i < cfg.NumCores; i++ {
		c := &Core{
			id:      phys.CoreID(i),
			mach:    m,
			PMPUnit: NewPMP(pmpN),
			tlb:     NewTLB(DefaultTLBEntries),
			cache:   NewCache(DefaultCacheLines),
		}
		// Guest execution charges the core's own clock shard; the
		// machine clock aggregates shards so totals stay global.
		m.Clock.AddShard(&c.clk)
		m.Cores = append(m.Cores, c)
	}
	for i, dc := range cfg.Devices {
		id := phys.DeviceID(i)
		m.Devices[id] = &Device{ID: id, Name: dc.Name, Class: dc.Class, mach: m}
	}
	return m, nil
}

// Core returns the core with the given ID, or nil.
func (m *Machine) Core(id phys.CoreID) *Core {
	if int(id) < 0 || int(id) >= len(m.Cores) {
		return nil
	}
	return m.Cores[id]
}

// Device returns the device with the given ID, or nil.
func (m *Machine) Device(id phys.DeviceID) *Device { return m.Devices[id] }

// DeviceIDs returns all device IDs in ascending order.
func (m *Machine) DeviceIDs() []phys.DeviceID {
	ids := make([]phys.DeviceID, 0, len(m.Devices))
	for i := 0; i < len(m.Devices); i++ {
		if _, ok := m.Devices[phys.DeviceID(i)]; ok {
			ids = append(ids, phys.DeviceID(i))
		}
	}
	return ids
}

// CoreIDs returns all core IDs in ascending order.
func (m *Machine) CoreIDs() []phys.CoreID {
	ids := make([]phys.CoreID, len(m.Cores))
	for i := range m.Cores {
		ids[i] = phys.CoreID(i)
	}
	return ids
}
