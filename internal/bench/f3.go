package bench

import (
	"fmt"
	"strings"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/oskit"
	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "F3",
		Title: "Trust domains orthogonal to system abstractions",
		Paper: "Figure 3",
		Gates: []Gate{
			{"hypervisor-vs-enclave", "dom0_reads_enclave", eq(0), "Figure 3: the most privileged software cannot read an enclave"},
			{"vm-vs-nested-enclave", "vm_reads_enclave", eq(0), "nesting cuts both ways: a VM cannot read the enclave it spawned"},
			{"kernel-vs-driver", "dom0_reads_driver", eq(0), "a driver compartment is a domain inside the kernel's box"},
			{"kernel-vs-process", "dom0_reads_process", eq(1), "plain processes stay inside dom0's domain: the OS keeps its abstraction"},
		},
	}, runF3)
}

// runF3 builds Figure 3's deployment — hypervisor, SaaS VM, processes,
// driver, enclaves — and tabulates how trust domains cut across the
// traditional abstraction boxes: the crypto engine (a "process-level"
// component) and the SaaS VM are separate domains; the OS's processes
// are *not* domains (the OS keeps that abstraction); and the driver
// compartment is a domain inside the kernel's box.
func runF3(cfg Config, res *Result) error {
	res.Columns = []string{"component", "system abstraction", "trust domain", "mem(KiB)", "cores", "devices", "state"}
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return err
	}
	d, err := buildSaaS(w)
	if err != nil {
		return err
	}
	// The provider also runs a commodity OS in dom0 with two plain
	// processes (no trust domain of their own), plus a NIC driver
	// compartment (a trust domain inside the kernel's box).
	os, err := oskit.NewWithClient(w.mon, w.cl)
	if err != nil {
		return err
	}
	mkProc := func(name string) (oskit.Pid, error) {
		return os.Spawn(name, procExit0, 1, 1)
	}
	p1, err := mkProc("web")
	if err != nil {
		return err
	}
	if _, err := mkProc("db"); err != nil {
		return err
	}
	driverImg := haltImage("nic-driver").WithBSS(".dmapool", 4*phys.PageSize)
	driver, err := os.Client().NewKernelCompartment(driverImg, []phys.DeviceID{1}, loadOn())
	if err != nil {
		return err
	}

	type comp struct {
		name, box string
		dom       core.DomainID // 0 = not a domain of its own
	}
	comps := []comp{
		{"cloud provider hypervisor+OS (dom0)", "hypervisor", core.InitialDomain},
		{"process web", "process in dom0", 0},
		{"process db", "process in dom0", 0},
		{"nic driver compartment", "kernel module in dom0", driver.ID()},
		{"SaaS VM", "virtual machine", d.vm.ID()},
		{"SaaS application", "process in VM", d.app.ID()},
		{"crypto engine", "enclave in VM", d.crypto.ID()},
		{"GPU", "PCI device", d.gpuDom.ID()},
	}
	for _, c := range comps {
		if c.dom == 0 {
			res.row(c.name, c.box, "-(OS abstraction)", "-", "-", "-", "-")
			continue
		}
		dom, err := w.mon.Domain(c.dom)
		if err != nil {
			return err
		}
		recs, err := w.mon.Enumerate(c.dom)
		if err != nil {
			return err
		}
		var memKiB uint64
		var cores, devs []string
		for _, r := range recs {
			switch r.Resource.Kind {
			case cap.ResMemory:
				memKiB += r.Resource.Mem.Size() / 1024
			case cap.ResCore:
				cores = append(cores, r.Resource.Core.String())
			case cap.ResDevice:
				devs = append(devs, r.Resource.Device.String())
			}
		}
		res.row(c.name, c.box, fmt.Sprintf("domain %d", c.dom), fmtU(memKiB),
			orDash(strings.Join(cores, ",")), orDash(strings.Join(devs, ",")), dom.State().String())
	}

	// Orthogonality checks: domain boundaries do not follow privilege
	// boundaries.
	// (a) The hypervisor (most privileged) cannot read the enclave.
	text, _ := d.crypto.SegmentRegion(".text")
	res.metric("dom0_reads_enclave", bit(w.mon.CheckAccess(core.InitialDomain, text.Start, cap.RightRead)))
	// (b) The VM cannot read its own child enclave either (nesting cuts
	// both ways).
	res.metric("vm_reads_enclave", bit(w.mon.CheckAccess(d.vm.ID(), text.Start, cap.RightRead)))
	// (c) The driver compartment is isolated from the kernel that
	// created it, while plain processes are not monitor-isolated.
	pool, _ := driver.SegmentRegion(".dmapool")
	res.metric("dom0_reads_driver", bit(w.mon.CheckAccess(core.InitialDomain, pool.Start, cap.RightRead)))
	proc1, _ := os.Process(p1)
	res.metric("dom0_reads_process", bit(w.mon.CheckAccess(core.InitialDomain, proc1.DataRegion().Start, cap.RightRead)))
	res.note("trust domains colour the deployment independently of the hypervisor/VM/process boxes")
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// procExit0 is the minimal oskit process body: exit(0).
func procExit0(base phys.Addr) []byte {
	a := hw.NewAsm()
	a.Movi(0, uint32(oskit.SysExit)).Movi(1, 0).Syscall()
	return a.MustAssemble(base)
}
