// Package oskit is a miniature commodity operating system that runs as
// a trust domain on the isolation monitor — the stand-in for the
// "unmodified Ubuntu distribution and Linux kernel" Tyche boots as its
// initial domain (§4).
//
// The OS keeps exactly the responsibilities the paper leaves with
// commodity systems: it *manages* resources (allocates process memory,
// schedules cores, implements syscalls) while the monitor *isolates*.
// Processes are an OS abstraction enforced with the domain's own
// first-level filter; the monitor's second-level filter keeps applying
// underneath, which is what lets "the OS still provide the process
// abstraction, while the monitor transparently allows sub-compartments
// within a process" (§3.5) — and what stops the OS kernel from reaching
// into enclaves even though it is the most privileged software in its
// domain (§2.2's bypass, closed).
package oskit

import (
	"errors"
	"fmt"
	"sort"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
)

// Pid identifies an OS process.
type Pid int

// ProcState is a process's scheduler state.
type ProcState int

// Process states.
const (
	ProcReady ProcState = iota
	ProcExited
	ProcFaulted
)

var procStateNames = [...]string{"ready", "exited", "faulted"}

func (s ProcState) String() string {
	if int(s) < len(procStateNames) {
		return procStateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Syscall numbers (r0 at the SYSCALL instruction).
const (
	// SysExit terminates the process; r1 is the exit code.
	SysExit uint64 = 1
	// SysLog appends r1 to the process log.
	SysLog uint64 = 2
	// SysYield gives up the remaining time slice.
	SysYield uint64 = 3
	// SysGetPid returns the pid in r1.
	SysGetPid uint64 = 4
)

// Scheduler sentinels (returned through the monitor's run loop and
// interpreted by Schedule).
var (
	errExit  = errors.New("oskit: process exited")
	errYield = errors.New("oskit: process yielded")
)

// Process is one OS process: interpreted user code confined by a
// first-level filter.
type Process struct {
	pid   Pid
	name  string
	state ProcState

	code phys.Region
	data phys.Region
	// filter is the process's first-level view: its own code and data.
	filter *hw.EPT

	regs [hw.NumRegs]uint64
	pc   phys.Addr

	// brk lists regions acquired via SysBrk (freed at reap).
	brk []phys.Region

	exitCode uint64
	fault    hw.Trap
	logs     []uint64
}

// Pid returns the process ID.
func (p *Process) Pid() Pid { return p.pid }

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// State returns the scheduler state.
func (p *Process) State() ProcState { return p.state }

// ExitCode returns the exit code (valid once exited).
func (p *Process) ExitCode() uint64 { return p.exitCode }

// Logs returns the values the process logged via SysLog.
func (p *Process) Logs() []uint64 {
	out := make([]uint64, len(p.logs))
	copy(out, p.logs)
	return out
}

// DataRegion returns the process's data placement.
func (p *Process) DataRegion() phys.Region { return p.data }

// Stats counts OS-level events.
type Stats struct {
	Switches uint64 // process context switches
	Syscalls uint64
	Spawns   uint64
}

// OS is the miniature kernel.
type OS struct {
	mon  *core.Monitor
	self core.DomainID
	lib  *libtyche.Client

	procs   map[Pid]*Process
	runq    []Pid
	nextPid Pid
	// running tracks the process currently installed per core.
	running map[phys.CoreID]*Process

	pipes    map[uint64]*pipe
	nextPipe uint64

	stats Stats
}

// New builds an OS kernel for the given domain (usually the initial
// domain), reserving the first reservePages of its memory for kernel
// text/data already placed there. It installs itself as the domain's
// syscall handler.
func New(mon *core.Monitor, dom core.DomainID, reservePages uint64) (*OS, error) {
	lib := libtyche.New(mon, dom)
	if err := lib.AutoHeap(reservePages); err != nil {
		return nil, err
	}
	return NewWithClient(mon, lib)
}

// NewWithClient builds the OS kernel over an existing libtyche client
// (and its allocator). Use this when other code already allocates from
// the domain's memory — two independent allocators over one capability
// would hand out the same pages.
func NewWithClient(mon *core.Monitor, lib *libtyche.Client) (*OS, error) {
	if lib.Heap() == nil {
		return nil, libtyche.ErrNoHeap
	}
	dom := lib.Self()
	os := &OS{
		mon:      mon,
		self:     dom,
		lib:      lib,
		procs:    make(map[Pid]*Process),
		running:  make(map[phys.CoreID]*Process),
		pipes:    make(map[uint64]*pipe),
		nextPid:  1,
		nextPipe: 1,
	}
	if err := mon.SetSyscallHandler(dom, dom, os.handleSyscall); err != nil {
		return nil, err
	}
	return os, nil
}

// Client exposes the OS's libtyche client (the OS uses it to spawn
// monitor-level compartments alongside its processes).
func (o *OS) Client() *libtyche.Client { return o.lib }

// Process returns the process record for pid.
func (o *OS) Process(pid Pid) (*Process, error) {
	p, ok := o.procs[pid]
	if !ok {
		return nil, fmt.Errorf("oskit: no process %d", pid)
	}
	return p, nil
}

// Processes lists all pids in ascending order.
func (o *OS) Processes() []Pid {
	out := make([]Pid, 0, len(o.procs))
	for pid := range o.procs {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Spawn creates a process from user code with dataPages of zeroed data.
// The process's first-level filter confines it to its own code (rx) and
// data (rw); register r9 carries the data base address at start.
func (o *OS) Spawn(name string, codeAt func(base phys.Addr) []byte, codePages, dataPages uint64) (Pid, error) {
	if codePages == 0 {
		return 0, fmt.Errorf("oskit: process %q needs code pages", name)
	}
	code, err := o.lib.Alloc(codePages)
	if err != nil {
		return 0, err
	}
	var data phys.Region
	if dataPages > 0 {
		data, err = o.lib.Alloc(dataPages)
		if err != nil {
			o.lib.Heap().Free(code)
			return 0, err
		}
	}
	bytes := codeAt(code.Start)
	if uint64(len(bytes)) > code.Size() {
		o.freeProcMem(code, data)
		return 0, fmt.Errorf("oskit: %q code (%d bytes) exceeds %d pages", name, len(bytes), codePages)
	}
	if err := o.lib.Write(code.Start, bytes); err != nil {
		o.freeProcMem(code, data)
		return 0, err
	}
	filter := hw.NewEPT()
	if err := filter.Map(code, hw.PermRX); err != nil {
		o.freeProcMem(code, data)
		return 0, err
	}
	if !data.Empty() {
		if err := filter.Map(data, hw.PermRW); err != nil {
			o.freeProcMem(code, data)
			return 0, err
		}
	}
	p := &Process{
		pid: o.nextPid, name: name, code: code, data: data, filter: filter,
		pc: code.Start,
	}
	p.regs[9] = uint64(data.Start)
	o.nextPid++
	o.procs[p.pid] = p
	o.runq = append(o.runq, p.pid)
	o.stats.Spawns++
	return p.pid, nil
}

func (o *OS) freeProcMem(code, data phys.Region) {
	o.lib.Heap().Free(code)
	if !data.Empty() {
		o.lib.Heap().Free(data)
	}
}

// Reap frees an exited or faulted process's memory.
func (o *OS) Reap(pid Pid) error {
	p, err := o.Process(pid)
	if err != nil {
		return err
	}
	if p.state == ProcReady {
		return fmt.Errorf("oskit: process %d still runnable", pid)
	}
	o.freeProcMem(p.code, p.data)
	for _, r := range p.brk {
		o.lib.Heap().Free(r)
	}
	delete(o.procs, pid)
	return nil
}

// Runnable reports whether any process is ready.
func (o *OS) Runnable() bool { return len(o.runq) > 0 }

// Schedule picks the next ready process round-robin and runs it on the
// core for up to quantum instructions. It returns the pid that ran and
// whether it is still runnable. The OS domain must already be current
// on the core (Launch it first).
func (o *OS) Schedule(coreID phys.CoreID, quantum int) (Pid, bool, error) {
	if len(o.runq) == 0 {
		return 0, false, errors.New("oskit: run queue empty")
	}
	pid := o.runq[0]
	o.runq = o.runq[1:]
	p := o.procs[pid]

	mach := o.mon.Machine()
	cpu := mach.Core(coreID)
	if cpu == nil {
		return 0, false, fmt.Errorf("oskit: no core %v", coreID)
	}
	if cur, ok := o.mon.Current(coreID); !ok || cur != o.self {
		return 0, false, fmt.Errorf("oskit: OS domain %d not current on %v", o.self, coreID)
	}
	// Context switch: install the process's first-level view. The cost
	// model charges the scheduler decision, two register-file moves and
	// the CR3-style switch.
	ctx, err := o.mon.DomainContext(o.self, o.self, coreID)
	if err != nil {
		return 0, false, err
	}
	mach.Clock.Advance(mach.Cost.SchedPick + 2*mach.Cost.CtxSave + mach.Cost.TLBFlush)
	ctx.OSFilter = p.filter
	cpu.Regs = p.regs
	cpu.PC = p.pc
	cpu.Ring = hw.RingUser
	cpu.ClearHalt()
	// Preemption is architectural: the kernel arms the core's one-shot
	// timer for the slice (the RunCore budget is a simulator backstop).
	cpu.ArmTimer(quantum)
	o.running[coreID] = p
	o.stats.Switches++

	res, err := o.mon.RunCore(coreID, quantum*4+16)
	cpu.ArmTimer(0)
	o.running[coreID] = nil
	// Save user state back.
	p.regs = cpu.Regs
	p.pc = cpu.PC

	switch {
	case errors.Is(err, errExit):
		p.state = ProcExited
		return pid, false, nil
	case errors.Is(err, errYield),
		err == nil && res.Trap.Kind == hw.TrapNone,
		err == nil && res.Trap.Kind == hw.TrapTimer:
		// Yield, timer preemption, or budget expiry: requeue.
		o.runq = append(o.runq, pid)
		return pid, true, nil
	case err != nil:
		return pid, false, err
	case res.Trap.Kind == hw.TrapFault, res.Trap.Kind == hw.TrapIllegal:
		p.state = ProcFaulted
		p.fault = res.Trap
		return pid, false, nil
	case res.Trap.Kind == hw.TrapHalt:
		// HLT from user mode: treat as exit 0 (the idle convention).
		p.state = ProcExited
		return pid, false, nil
	default:
		return pid, false, fmt.Errorf("oskit: unexpected run result %+v", res)
	}
}

// RunAll schedules until the run queue drains or maxSlices quanta have
// been consumed.
func (o *OS) RunAll(coreID phys.CoreID, quantum, maxSlices int) error {
	for i := 0; i < maxSlices && o.Runnable(); i++ {
		if _, _, err := o.Schedule(coreID, quantum); err != nil {
			return err
		}
	}
	return nil
}

// handleSyscall is the domain's ring-0 trap handler.
func (o *OS) handleSyscall(c *hw.Core) error {
	o.stats.Syscalls++
	p := o.running[c.ID()]
	if p == nil {
		return fmt.Errorf("oskit: syscall with no running process on %v", c.ID())
	}
	switch c.Regs[0] {
	case SysExit:
		p.exitCode = c.Regs[1]
		return errExit
	case SysLog:
		p.logs = append(p.logs, c.Regs[1])
		c.Regs[0] = 0
	case SysYield:
		return errYield
	case SysGetPid:
		c.Regs[0] = 0
		c.Regs[1] = uint64(p.pid)
	default:
		if !o.handleExtendedSyscall(c, p) {
			c.Regs[0] = ^uint64(0) // ENOSYS
		}
	}
	return nil
}

// KernelRead is the privileged-bypass probe (§2.2): the kernel, as the
// domain's most privileged software, reads arbitrary memory *within its
// domain* regardless of process filters. Whether it succeeds outside —
// e.g. on an enclave's pages — is decided by the monitor's second-level
// filter, which is exactly experiment C8.
func (o *OS) KernelRead(a phys.Addr, n uint64) ([]byte, error) {
	return o.mon.CopyFrom(o.self, a, n)
}
