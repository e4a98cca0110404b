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
		Gates: []Gate{
			{"explicit-sharing-stops-leak", "sgx_leaked", eq(1), "§4.2: SGX enclaves reach untrusted memory implicitly"},
			{"explicit-sharing-stops-leak", "tyche_leaked", eq(0), "§4.2: Tyche enclaves share only explicitly"},
			{"enclave-count-crossover", "sgx_max_enclaves / tyche_max_enclaves", lt(1), "§4.2: enclave count bounded by memory, not an EPC"},
			{"nesting", "sgx_nested", eq(0), "SGX enclaves cannot nest"},
			{"nesting", "tyche_nested", eq(1), "§4.2: Tyche enclaves nest"},
			{"enclave-sharing", "sgx_shared", eq(0), "SGX enclaves cannot share EPC pages"},
			{"enclave-sharing", "tyche_shared", eq(1), "§4.2: enclave-to-enclave sharing"},
			{"enclave-sharing", "channel_refcount", eq(2), "the shared page is visible as refcount 2"},
		},
	}, runC4)
}

// runC4 reproduces the three §4.2 comparisons head to head:
// (a) accidental leakage: a buggy enclave writing outside itself —
// implicit untrusted access lets it leak on SGX, the write faults on
// Tyche; (b) enclave count/layout: SGX is capped by disjoint ELRANGEs
// and the EPC while Tyche enclaves scale with physical memory; (c)
// nesting and enclave-to-enclave sharing: impossible on SGX, native on
// Tyche.
func runC4(cfg Config, res *Result) error {
	res.Columns = []string{"property", "sgx", "tyche"}

	// ---------- (a) accidental leakage ----------
	sgxMach, err := hw.NewMachine(hw.Config{MemBytes: 16 << 20, NumCores: 1, IOMMUAllowByDefault: true})
	if err != nil {
		return err
	}
	sgx := baseline.NewSGX(sgxMach, 0)
	procMem := phys.MakeRegion(1<<20, 256*phys.PageSize)
	proc, err := sgx.NewProcess(procMem)
	if err != nil {
		return err
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
		return err
	}
	if err := sgxMach.Mem.Write64(secretAddr, 0x5ec2e7); err != nil {
		return err
	}
	encl, err := proc.CreateEnclave(el, el.Start, false)
	if err != nil {
		return err
	}
	encl.EEnter(sgxMach.Cores[0])
	_, sgxTrap := sgxMach.Cores[0].Run(100)
	leaked, err := sgxMach.Mem.Read64(leakTarget)
	if err != nil {
		return err
	}
	sgxLeaks := sgxTrap.Kind == hw.TrapHalt && leaked == 0x5ec2e7

	// Tyche: same buggy program, same layout idea; the write faults
	// because nothing outside the enclave is mapped unless explicitly
	// shared.
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return err
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
		return err
	}
	tEncl, err := w.cl.NewEnclave(img, loadOn(1))
	if err != nil {
		return err
	}
	if err := tEncl.Launch(1); err != nil {
		return err
	}
	tRes, err := w.mon.RunCore(1, 100)
	if err != nil {
		return err
	}
	tycheLeaks := tRes.Trap.Kind == hw.TrapHalt
	res.row("buggy enclave writes secret to untrusted memory", leakWord(sgxLeaks), leakWord(tycheLeaks))
	res.metric("sgx_leaked", bit(sgxLeaks))
	res.metric("tyche_leaked", bit(tycheLeaks))

	// ---------- (b) enclave count & layout ----------
	// How many 8-page enclaves fit? SGX: bounded by min(process
	// ELRANGE space, EPC). Tyche: bounded by physical memory.
	enclavePages := uint64(8)
	sgxMach2, _ := hw.NewMachine(hw.Config{MemBytes: 16 << 20, NumCores: 1, IOMMUAllowByDefault: true})
	epc := uint64(64) // pages
	sgx2 := baseline.NewSGX(sgxMach2, epc)
	proc2, err := sgx2.NewProcess(phys.MakeRegion(1<<20, 512*phys.PageSize))
	if err != nil {
		return err
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
		return err
	}
	tycheMax := 0
	limit := 64
	if cfg.Quick {
		limit = 24
	}
	for i := 0; i < limit; i++ {
		if _, err := w2.cl.NewEnclave(addImage(fmt.Sprintf("e%d", i), 1).WithBSS(".pad", (enclavePages-1)*phys.PageSize), loadOn(1)); err != nil {
			break
		}
		tycheMax++
	}
	res.row(fmt.Sprintf("max %d-page enclaves (EPC=%d pages)", enclavePages, epc),
		fmtU(uint64(sgxMax)), fmt.Sprintf(">=%d (stopped at sweep limit)", tycheMax))
	res.metric("sgx_max_enclaves", float64(sgxMax))
	res.metric("tyche_max_enclaves", float64(tycheMax))

	// ---------- (c) nesting & enclave-to-enclave sharing ----------
	_, nestErr := proc2.CreateEnclave(phys.MakeRegion(1<<20+400*phys.PageSize, 8*phys.PageSize), 0, true)
	sgxNest := nestErr == nil
	w3, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return err
	}
	outerImg := addImage("outer", 1).WithHeap(".heap", 64*phys.PageSize)
	outer, err := w3.cl.Load(outerImg, loadOn(1))
	if err != nil {
		return err
	}
	if _, err := outer.Seal(); err != nil {
		return err
	}
	oc := outer.Client()
	heapNode, _ := outer.SegmentNode(".heap")
	heapRegion, _ := outer.SegmentRegion(".heap")
	if err := oc.SetHeap(heapNode, heapRegion); err != nil {
		return err
	}
	inner, innerErr := oc.Load(addImage("inner", 2), loadOn(1))
	tycheNest := innerErr == nil
	res.row("enclave spawns nested enclave", boolCell(sgxNest), boolCell(tycheNest))
	res.metric("sgx_nested", bit(sgxNest))
	res.metric("tyche_nested", bit(tycheNest))
	if !tycheNest {
		return nil
	}

	// Enclave-to-enclave page sharing: a secure channel between outer
	// and inner (outer shares an exclusively-owned page, §4.2).
	chanRegion, err := oc.Alloc(1)
	if err != nil {
		return err
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
	res.metric("sgx_shared", bit(sgxShareErr == nil))
	res.metric("tyche_shared", bit(shareErr == nil))
	res.metric("channel_refcount", float64(refs))
	return nil
}

func leakWord(leaked bool) string { return boolCellWord(leaked, "SECRET LEAKED", "write faults") }
