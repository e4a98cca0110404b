package baseline

import (
	"bytes"
	"errors"
	"testing"

	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
)

const pg = phys.PageSize

func bareMachine(t testing.TB) *hw.Machine {
	t.Helper()
	m, err := hw.NewMachine(hw.Config{
		MemBytes: 16 << 20, NumCores: 4, IOMMUAllowByDefault: true,
		Devices: []hw.DeviceConfig{{Name: "gpu0", Class: hw.DevAccelerator}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCommodityProcessesRunAndIsolate(t *testing.T) {
	m := bareMachine(t)
	c, err := NewCommodity(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	exitProg := func(code uint32) func(phys.Addr) []byte {
		return func(base phys.Addr) []byte {
			a := hw.NewAsm()
			a.Movi(0, uint32(SysGetPid)).Syscall()
			a.Movi(0, uint32(SysLog)).Syscall()
			a.Movi(0, uint32(SysExit)).Movi(1, code).Syscall()
			return a.MustAssemble(base)
		}
	}
	p1, err := c.Spawn("a", exitProg(1), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Spawn("b", func(base phys.Addr) []byte {
		// Read p1's data page: user-level isolation still works.
		a := hw.NewAsm()
		a.Movi(1, uint32(p1.Data.Start))
		a.Ld(2, 1, 0)
		a.Movi(0, uint32(SysExit)).Movi(1, 0).Syscall()
		return a.MustAssemble(base)
	}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunAll(0, 1000, 10); err != nil {
		t.Fatal(err)
	}
	if p1.State != CProcExited || p1.ExitCode != 1 {
		t.Fatalf("p1 = %+v", p1)
	}
	if len(p1.Logs) != 1 || p1.Logs[0] != uint64(p1.Pid) {
		t.Fatalf("p1 logs = %v", p1.Logs)
	}
	if p2.State != CProcFaulted || p2.FaultAt != p1.Data.Start {
		t.Fatalf("p2 = %+v", p2)
	}
}

func TestCommodityKernelBypassAndDMA(t *testing.T) {
	m := bareMachine(t)
	c, err := NewCommodity(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Spawn("victim", func(base phys.Addr) []byte {
		a := hw.NewAsm()
		a.Movi(0, uint32(SysExit)).Movi(1, 0).Syscall()
		return a.MustAssemble(base)
	}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a secret in the victim's data page.
	if err := m.Mem.WriteAt(p.Data.Start, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	// The kernel reads it — process isolation protects only user code.
	got, err := c.KernelRead(p.Data.Start, 6)
	if err != nil || string(got) != "secret" {
		t.Fatalf("kernel bypass: %q, %v", got, err)
	}
	// Any device DMAs it out too (no IOMMU policy).
	buf := make([]byte, 6)
	if err := m.Device(0).DMARead(p.Data.Start, buf); err != nil || string(buf) != "secret" {
		t.Fatalf("DMA attack: %q, %v", buf, err)
	}
}

func TestSGXEnclaveSemantics(t *testing.T) {
	m := bareMachine(t)
	s := NewSGX(m, 64)
	procMem := phys.MakeRegion(1<<20, 128*pg)
	proc, err := s.NewProcess(procMem)
	if err != nil {
		t.Fatal(err)
	}
	el := phys.MakeRegion(procMem.Start+8*pg, 8*pg)
	// Put code-ish bytes inside for the measurement.
	if err := m.Mem.WriteAt(el.Start, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	e, err := proc.CreateEnclave(el, el.Start, false)
	if err != nil {
		t.Fatal(err)
	}
	if e.Measurement == (tpm.Digest{}) {
		t.Fatal("no measurement")
	}
	if s.EPCFree() != 56 {
		t.Fatalf("EPC free = %d", s.EPCFree())
	}
	// Host cannot see the ELRANGE; enclave sees everything (implicit
	// untrusted access — the leak path).
	if proc.HostContext().Filter.Check(el.Start, hw.PermR) {
		t.Fatal("host reads enclave memory")
	}
	if !e.ctx.Filter.Check(procMem.Start, hw.PermW) {
		t.Fatal("enclave lost implicit access to process memory")
	}
	// No nesting.
	if _, err := proc.CreateEnclave(phys.MakeRegion(procMem.Start+32*pg, 4*pg), 0, true); !errors.Is(err, ErrSGXNoNesting) {
		t.Fatalf("nesting: %v", err)
	}
	// No overlapping ELRANGEs (no address reuse).
	if _, err := proc.CreateEnclave(el, el.Start, false); !errors.Is(err, ErrSGXELRangeOverlap) {
		t.Fatalf("overlap: %v", err)
	}
	// EPC exhaustion.
	if _, err := proc.CreateEnclave(phys.MakeRegion(procMem.Start+120*pg, 60*pg), 0, false); !errors.Is(err, ErrSGXOutsideProcess) {
		t.Fatalf("outside: %v", err)
	}
	// EPC exhaustion: 57 pages wanted, 56 free.
	big := phys.MakeRegion(procMem.Start+16*pg, 57*pg)
	if _, err := proc.CreateEnclave(big, 0, false); !errors.Is(err, ErrSGXEPCExhausted) {
		t.Fatalf("epc: %v", err)
	}
	// No EPC sharing between enclaves.
	e2, err := proc.CreateEnclave(phys.MakeRegion(procMem.Start+24*pg, 4*pg), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ShareEPC(e2, phys.MakeRegion(el.Start, pg)); !errors.Is(err, ErrSGXNoSharing) {
		t.Fatalf("share: %v", err)
	}
	// Transitions cost SGX prices.
	before := m.Clock.Cycles()
	e.EEnter(m.Cores[0])
	e.EExit(m.Cores[0])
	if got := m.Clock.Cycles() - before; got != SGXEEnterCost+SGXEExitCost {
		t.Fatalf("transition cost = %d", got)
	}
	// Destroy scrubs and returns EPC + host access.
	if err := e.Destroy(); err != nil {
		t.Fatal(err)
	}
	if s.EPCFree() != 60 {
		t.Fatalf("EPC free after destroy = %d", s.EPCFree())
	}
	if !proc.HostContext().Filter.Check(el.Start, hw.PermR) {
		t.Fatal("host access not restored")
	}
	got, _ := m.Mem.View(phys.MakeRegion(el.Start, pg))
	if !bytes.Equal(got[:3], []byte{0, 0, 0}) {
		t.Fatal("EPC not scrubbed")
	}
	if err := e.Destroy(); err == nil {
		t.Fatal("double destroy")
	}
}
