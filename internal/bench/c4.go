package bench

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/baseline"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/image"
	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "C4",
		Title: "Tyche enclaves vs SGX: explicit sharing, layout freedom, nesting",
		Paper: "§4.2 'Tyche-enclaves present notable improvements over SGX ones'",
		Run:   runC4,
	})
}

// runC4 reproduces the three §4.2 comparisons head to head:
// (a) accidental leakage: a buggy enclave writing outside itself —
// implicit untrusted access lets it leak on SGX, the write faults on
// Tyche; (b) enclave count/layout: SGX is capped by disjoint ELRANGEs
// and the EPC while Tyche enclaves scale with physical memory; (c)
// nesting and enclave-to-enclave sharing: impossible on SGX, native on
// Tyche.
func runC4(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C4", Title: "Enclave model comparison",
		Columns: []string{"property", "sgx", "tyche"},
	}

	// ---------- (a) accidental leakage ----------
	sgxMach, err := hw.NewMachine(hw.Config{MemBytes: 16 << 20, NumCores: 1, IOMMUAllowByDefault: true})
	if err != nil {
		return nil, err
	}
	sgx := baseline.NewSGX(sgxMach, 0)
	procMem := phys.MakeRegion(1<<20, 256*phys.PageSize)
	proc, err := sgx.NewProcess(procMem)
	if err != nil {
		return nil, err
	}
	el := phys.MakeRegion(procMem.Start, 4*phys.PageSize)
	secretAddr := el.Start + 2*phys.PageSize
	leakTarget := procMem.Start + 64*phys.PageSize // untrusted process memory
	// Buggy enclave: copy its secret into untrusted memory.
	buggy := hw.NewAsm()
	buggy.Movi(1, uint32(secretAddr))
	buggy.Ld(2, 1, 0)
	buggy.Movi(3, uint32(leakTarget))
	buggy.St(3, 0, 2)
	buggy.Hlt()
	if err := sgxMach.Mem.WriteAt(el.Start, buggy.MustAssemble(el.Start)); err != nil {
		return nil, err
	}
	if err := sgxMach.Mem.Write64(secretAddr, 0x5ec2e7); err != nil {
		return nil, err
	}
	encl, err := proc.CreateEnclave(el, el.Start, false)
	if err != nil {
		return nil, err
	}
	encl.EEnter(sgxMach.Cores[0])
	_, sgxTrap := sgxMach.Cores[0].Run(100)
	leaked, err := sgxMach.Mem.Read64(leakTarget)
	if err != nil {
		return nil, err
	}
	sgxLeaks := sgxTrap.Kind == hw.TrapHalt && leaked == 0x5ec2e7

	// Tyche: same buggy program, same layout idea; the write faults
	// because nothing outside the enclave is mapped unless explicitly
	// shared.
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return nil, err
	}
	leakT := w.mon.MonitorRegion().Start - 64*phys.PageSize // some dom0 page
	img, err := w.cl.BuildAt("buggy", func(base phys.Addr) *hw.Asm {
		a := hw.NewAsm()
		a.Movi(1, uint32(base+phys.PageSize)) // its own secret page
		a.Ld(2, 1, 0)
		a.Movi(3, uint32(leakT))
		a.St(3, 0, 2)
		a.Hlt()
		return a
	}, func(img *image.Image) { img.WithBSS(".secret", phys.PageSize) })
	if err != nil {
		return nil, err
	}
	tEncl, err := w.cl.NewEnclave(img, loadOn(1))
	if err != nil {
		return nil, err
	}
	if err := tEncl.Launch(1); err != nil {
		return nil, err
	}
	tRes, err := w.mon.RunCore(1, 100)
	if err != nil {
		return nil, err
	}
	tycheLeaks := tRes.Trap.Kind == hw.TrapHalt
	res.row("buggy enclave writes secret to untrusted memory", leakWord(sgxLeaks), leakWord(tycheLeaks))
	res.check("explicit-sharing-stops-leak", sgxLeaks && !tycheLeaks,
		"sgx: secret escaped to untrusted memory; tyche: %v at %v", tRes.Trap.Kind, tRes.Trap.Addr)

	// ---------- (b) enclave count & layout ----------
	// How many 8-page enclaves fit? SGX: bounded by min(process
	// ELRANGE space, EPC). Tyche: bounded by physical memory.
	enclavePages := uint64(8)
	sgxMach2, _ := hw.NewMachine(hw.Config{MemBytes: 16 << 20, NumCores: 1, IOMMUAllowByDefault: true})
	epc := uint64(64) // pages
	sgx2 := baseline.NewSGX(sgxMach2, epc)
	proc2, err := sgx2.NewProcess(phys.MakeRegion(1<<20, 512*phys.PageSize))
	if err != nil {
		return nil, err
	}
	sgxMax := 0
	for i := 0; ; i++ {
		r := phys.MakeRegion(phys.Addr(1<<20)+phys.Addr(uint64(i)*enclavePages*phys.PageSize), enclavePages*phys.PageSize)
		if _, err := proc2.CreateEnclave(r, r.Start, false); err != nil {
			break
		}
		sgxMax++
	}
	w2, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return nil, err
	}
	tycheMax := 0
	limit := 64
	if cfg.Quick {
		limit = 24
	}
	for i := 0; i < limit; i++ {
		e, err := w2.cl.NewEnclave(addImage(fmt.Sprintf("e%d", i), 1).WithBSS(".pad", (enclavePages-1)*phys.PageSize), loadOn(1))
		if err != nil {
			break
		}
		_ = e
		tycheMax++
	}
	res.row(fmt.Sprintf("max %d-page enclaves (EPC=%d pages)", enclavePages, epc),
		fmtU(uint64(sgxMax)), fmt.Sprintf(">=%d (stopped at sweep limit)", tycheMax))
	res.check("enclave-count-crossover", sgxMax < tycheMax,
		"sgx capped at %d by the EPC; tyche reached the sweep limit %d", sgxMax, tycheMax)

	// ---------- (c) nesting & enclave-to-enclave sharing ----------
	_, nestErr := proc2.CreateEnclave(phys.MakeRegion(1<<20+400*phys.PageSize, 8*phys.PageSize), 0, true)
	sgxNest := nestErr == nil
	w3, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return nil, err
	}
	outerImg := addImage("outer", 1).WithHeap(".heap", 64*phys.PageSize)
	outer, err := w3.cl.Load(outerImg, loadOn(1))
	if err != nil {
		return nil, err
	}
	if _, err := outer.Seal(); err != nil {
		return nil, err
	}
	oc := outer.Client()
	heapNode, _ := outer.SegmentNode(".heap")
	heapRegion, _ := outer.SegmentRegion(".heap")
	if err := oc.SetHeap(heapNode, heapRegion); err != nil {
		return nil, err
	}
	inner, innerErr := oc.Load(addImage("inner", 2), loadOn(1))
	tycheNest := innerErr == nil
	res.row("enclave spawns nested enclave", boolCell(sgxNest), boolCell(tycheNest))
	res.check("nesting", !sgxNest && tycheNest,
		"sgx: %v; tyche nested load: %v", nestErr, innerErr)
	if !tycheNest {
		return res, nil
	}

	// Enclave-to-enclave page sharing: a secure channel between outer
	// and inner (outer shares an exclusively-owned page, §4.2).
	chanRegion, err := oc.Alloc(1)
	if err != nil {
		return nil, err
	}
	_, shareErr := w3.mon.Share(outer.ID(), heapNode, inner.ID(), cap.MemResource(chanRegion), cap.MemRW, cap.CleanZero)
	sgxShareErr := encl.ShareEPC(nil, phys.Region{})
	res.row("protected page shared between enclaves", boolCell(sgxShareErr == nil), boolCell(shareErr == nil))
	refs := 0
	for _, rc := range w3.mon.RefCounts() {
		if rc.Region.Overlaps(chanRegion) {
			refs = rc.Count
		}
	}
	res.check("enclave-sharing", sgxShareErr != nil && shareErr == nil && refs == 2,
		"sgx: %v; tyche: %v<->%v channel at %v, refcount %d", sgxShareErr, outer.ID(), inner.ID(), chanRegion, refs)
	return res, nil
}

func leakWord(leaked bool) string {
	if leaked {
		return "SECRET LEAKED"
	}
	return "write faults"
}
