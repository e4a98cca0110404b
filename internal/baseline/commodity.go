// Package baseline implements the comparison systems the experiments
// measure Tyche against:
//
//   - Commodity: a commodity OS alone on the machine — processes are the
//     only isolation, ring 0 bypasses it, and devices DMA freely (§2.2's
//     monopoly, unmitigated).
//   - SGX: an SGX-like enclave substrate — enclaves tied to a process,
//     one ELRANGE each, implicit access to all process memory, a finite
//     EPC, and no nesting (the §4.2 comparison target).
package baseline

import (
	"errors"
	"fmt"

	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
)

// Commodity syscall numbers (same ABI as oskit for comparable
// workloads).
const (
	SysExit   uint64 = 1
	SysLog    uint64 = 2
	SysYield  uint64 = 3
	SysGetPid uint64 = 4
)

// CProcState is a commodity process's state.
type CProcState int

// Commodity process states.
const (
	CProcReady CProcState = iota
	CProcExited
	CProcFaulted
)

// CProcess is a commodity-OS process.
type CProcess struct {
	Pid      int
	Name     string
	State    CProcState
	Code     phys.Region
	Data     phys.Region
	ExitCode uint64
	FaultAt  phys.Addr
	Logs     []uint64

	filter *hw.EPT
	regs   [hw.NumRegs]uint64
	pc     phys.Addr
}

// Commodity is the no-monitor baseline: an OS with a ring-0/ring-3
// split and per-process first-level filters, and nothing above it.
type Commodity struct {
	mach  *hw.Machine
	alloc *libtyche.Allocator
	ctx   *hw.Context // the single kernel context: Filter is AllowAll

	procs   map[int]*CProcess
	runq    []int
	nextPid int
	current *CProcess

	Switches uint64
	Syscalls uint64
}

// NewCommodity boots the commodity OS on a bare machine, managing
// memory above reservePages.
func NewCommodity(mach *hw.Machine, reservePages uint64) (*Commodity, error) {
	pool := phys.Region{Start: phys.Addr(reservePages * phys.PageSize), End: phys.Addr(mach.Mem.Size())}
	alloc, err := libtyche.NewAllocator(pool)
	if err != nil {
		return nil, err
	}
	// The commodity kernel faces no second-level filter: AllowAll.
	ctx := &hw.Context{Owner: 1, Filter: hw.AllowAll{}}
	return &Commodity{
		mach:    mach,
		alloc:   alloc,
		ctx:     ctx,
		procs:   make(map[int]*CProcess),
		nextPid: 1,
	}, nil
}

// Spawn creates a process (same contract as oskit.Spawn).
func (c *Commodity) Spawn(name string, codeAt func(phys.Addr) []byte, codePages, dataPages uint64) (*CProcess, error) {
	code, err := c.alloc.Alloc(codePages)
	if err != nil {
		return nil, err
	}
	var data phys.Region
	if dataPages > 0 {
		if data, err = c.alloc.Alloc(dataPages); err != nil {
			c.alloc.Free(code)
			return nil, err
		}
	}
	bytes := codeAt(code.Start)
	if uint64(len(bytes)) > code.Size() {
		return nil, fmt.Errorf("baseline: %q code exceeds %d pages", name, codePages)
	}
	if err := c.mach.Mem.WriteAt(code.Start, bytes); err != nil {
		return nil, err
	}
	filter := hw.NewEPT()
	if err := filter.Map(code, hw.PermRX); err != nil {
		return nil, err
	}
	if !data.Empty() {
		if err := filter.Map(data, hw.PermRW); err != nil {
			return nil, err
		}
	}
	p := &CProcess{Pid: c.nextPid, Name: name, Code: code, Data: data, filter: filter, pc: code.Start}
	p.regs[9] = uint64(data.Start)
	c.nextPid++
	c.procs[p.Pid] = p
	c.runq = append(c.runq, p.Pid)
	return p, nil
}

// Runnable reports whether the run queue is non-empty.
func (c *Commodity) Runnable() bool { return len(c.runq) > 0 }

// Schedule runs the next ready process on core for up to quantum
// instructions, handling its syscalls inline (the commodity kernel has
// no monitor to trap through).
func (c *Commodity) Schedule(coreID phys.CoreID, quantum int) (*CProcess, error) {
	if len(c.runq) == 0 {
		return nil, errors.New("baseline: run queue empty")
	}
	pid := c.runq[0]
	c.runq = c.runq[1:]
	p := c.procs[pid]
	cpu := c.mach.Core(coreID)
	if cpu == nil {
		return nil, fmt.Errorf("baseline: no core %v", coreID)
	}
	c.mach.Clock.Advance(c.mach.Cost.SchedPick + 2*c.mach.Cost.CtxSave + c.mach.Cost.TLBFlush)
	c.ctx.OSFilter = p.filter
	cpu.InstallContext(c.ctx)
	cpu.Regs = p.regs
	cpu.PC = p.pc
	cpu.Ring = hw.RingUser
	c.current = p
	c.Switches++

	budget := quantum
	for budget > 0 {
		n, trap := cpu.Run(budget)
		budget -= n
		switch trap.Kind {
		case hw.TrapNone:
			p.regs, p.pc = cpu.Regs, cpu.PC
			c.runq = append(c.runq, pid) // preempted
			return p, nil
		case hw.TrapHalt:
			p.State = CProcExited
			return p, nil
		case hw.TrapSyscall:
			c.Syscalls++
			c.mach.Clock.Advance(c.mach.Cost.Syscall)
			done := c.handleSyscall(cpu, p)
			c.mach.Clock.Advance(c.mach.Cost.Sysret)
			if done {
				p.regs, p.pc = cpu.Regs, cpu.PC
				if p.State == CProcReady {
					c.runq = append(c.runq, pid) // yielded
				}
				return p, nil
			}
		case hw.TrapFault, hw.TrapIllegal:
			p.State = CProcFaulted
			p.FaultAt = trap.Addr
			return p, nil
		case hw.TrapVMCall:
			// No monitor on this machine: VMCALL is undefined.
			p.State = CProcFaulted
			return p, nil
		}
	}
	p.regs, p.pc = cpu.Regs, cpu.PC
	c.runq = append(c.runq, pid)
	return p, nil
}

// handleSyscall returns true when the process leaves the core.
func (c *Commodity) handleSyscall(cpu *hw.Core, p *CProcess) bool {
	switch cpu.Regs[0] {
	case SysExit:
		p.ExitCode = cpu.Regs[1]
		p.State = CProcExited
		return true
	case SysLog:
		p.Logs = append(p.Logs, cpu.Regs[1])
		cpu.Regs[0] = 0
	case SysYield:
		return true
	case SysGetPid:
		cpu.Regs[0] = 0
		cpu.Regs[1] = uint64(p.Pid)
	default:
		cpu.Regs[0] = ^uint64(0)
	}
	return false
}

// RunAll drains the run queue (bounded by maxSlices).
func (c *Commodity) RunAll(coreID phys.CoreID, quantum, maxSlices int) error {
	for i := 0; i < maxSlices && c.Runnable(); i++ {
		if _, err := c.Schedule(coreID, quantum); err != nil {
			return err
		}
	}
	return nil
}

// KernelRead is the §2.2 bypass, unmitigated: the commodity kernel can
// read any byte of physical memory, process isolation notwithstanding.
// It never fails (within bounds) — that is the point of the baseline.
func (c *Commodity) KernelRead(a phys.Addr, n uint64) ([]byte, error) {
	buf := make([]byte, n)
	if err := c.mach.Mem.ReadAt(a, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Alloc exposes the OS allocator (for workload setup).
func (c *Commodity) Alloc(pages uint64) (phys.Region, error) { return c.alloc.Alloc(pages) }
