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
		Run:   runF3,
	})
}

// runF3 builds Figure 3's deployment — hypervisor, SaaS VM, processes,
// driver, enclaves — and tabulates how trust domains cut across the
// traditional abstraction boxes: the crypto engine (a "process-level"
// component) and the SaaS VM are separate domains; the OS's processes
// are *not* domains (the OS keeps that abstraction); and the driver
// compartment is a domain inside the kernel's box.
func runF3(cfg Config) (*Result, error) {
	res := &Result{
		ID: "F3", Title: "Trust domains vs system abstractions",
		Columns: []string{"component", "system abstraction", "trust domain", "mem(KiB)", "cores", "devices", "state"},
	}
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return nil, err
	}
	d, err := buildSaaS(w)
	if err != nil {
		return nil, err
	}
	// The provider also runs a commodity OS in dom0 with two plain
	// processes (no trust domain of their own), plus a NIC driver
	// compartment (a trust domain inside the kernel's box).
	os, err := oskit.NewWithClient(w.mon, w.cl)
	if err != nil {
		return nil, err
	}
	mkProc := func(name string) (oskit.Pid, error) {
		return os.Spawn(name, procExit0, 1, 1)
	}
	p1, err := mkProc("web")
	if err != nil {
		return nil, err
	}
	p2, err := mkProc("db")
	if err != nil {
		return nil, err
	}
	driverImg := haltImage("nic-driver").WithBSS(".dmapool", 4*phys.PageSize)
	driver, err := os.Client().NewKernelCompartment(driverImg, []phys.DeviceID{1}, loadOn())
	if err != nil {
		return nil, err
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
			return nil, err
		}
		recs, err := w.mon.Enumerate(c.dom)
		if err != nil {
			return nil, err
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
	hv := w.mon.CheckAccess(core.InitialDomain, text.Start, cap.RightRead)
	res.check("hypervisor-vs-enclave", !hv, "dom0 (hypervisor) has no access to the crypto engine")
	// (b) The VM cannot read its own child enclave either (nesting cuts
	// both ways).
	vmRead := w.mon.CheckAccess(d.vm.ID(), text.Start, cap.RightRead)
	res.check("vm-vs-nested-enclave", !vmRead, "the SaaS VM cannot read the enclave it spawned")
	// (c) The driver compartment is isolated from the kernel that
	// created it, while plain processes are not monitor-isolated.
	pool, _ := driver.SegmentRegion(".dmapool")
	kd := w.mon.CheckAccess(core.InitialDomain, pool.Start, cap.RightRead)
	res.check("kernel-vs-driver", !kd, "dom0 kernel cannot touch the driver compartment")
	proc1, _ := os.Process(p1)
	kp := w.mon.CheckAccess(core.InitialDomain, proc1.DataRegion().Start, cap.RightRead)
	res.check("kernel-vs-process", kp, "plain processes stay inside dom0's domain (OS abstraction preserved)")
	_ = p2
	res.note("trust domains colour the deployment independently of the hypervisor/VM/process boxes")
	return res, nil
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
