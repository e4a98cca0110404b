package baseline

import (
	"errors"

	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
)

// SGX transition costs in cycles. SGX world switches are an order of
// magnitude costlier than VM transitions: published measurements put an
// EENTER/EEXIT round trip at 8-14k cycles (e.g. Hotcalls, ISCA'17; SGX
// Explained). We model the entry and exit halves separately.
const (
	SGXEEnterCost = 7200
	SGXEExitCost  = 3300
	// SGXEAddCost is charged per EPC page added at enclave build time.
	SGXEAddCost = 1800
)

// DefaultEPCPages models the classic 93.5 MiB usable EPC, scaled to the
// simulated machine (we default to 1024 pages = 4 MiB and let the
// experiments vary it).
const DefaultEPCPages = 1024

// SGX model errors — each encodes one of the §4.2 limitations Tyche
// lifts.
var (
	// ErrSGXNoNesting: enclaves cannot create enclaves.
	ErrSGXNoNesting = errors.New("sgx: enclaves cannot spawn enclaves (no nesting)")
	// ErrSGXELRangeOverlap: enclave ranges within one process must be
	// disjoint — no virtual-address reuse.
	ErrSGXELRangeOverlap = errors.New("sgx: ELRANGE overlaps an existing enclave (no address reuse)")
	// ErrSGXEPCExhausted: the enclave page cache is finite.
	ErrSGXEPCExhausted = errors.New("sgx: EPC exhausted")
	// ErrSGXOutsideProcess: an enclave must live inside its host
	// process's address space.
	ErrSGXOutsideProcess = errors.New("sgx: ELRANGE outside host process")
	// ErrSGXNoSharing: two enclaves cannot share protected memory.
	ErrSGXNoSharing = errors.New("sgx: enclaves cannot share EPC pages")
)

// SGX is the SGX-like substrate on a simulated machine.
type SGX struct {
	mach      *hw.Machine
	epcBudget uint64
	epcUsed   uint64
	nextID    int
}

// NewSGX returns an SGX model with an EPC of epcPages (0 selects
// DefaultEPCPages).
func NewSGX(mach *hw.Machine, epcPages uint64) *SGX {
	if epcPages == 0 {
		epcPages = DefaultEPCPages
	}
	return &SGX{mach: mach, epcBudget: epcPages, nextID: 1}
}

// SGXProcess is a host process that can hold enclaves.
type SGXProcess struct {
	sgx      *SGX
	Mem      phys.Region
	Enclaves []*SGXEnclave
	hostCtx  *hw.Context
	hostEPT  *hw.EPT
}

// NewProcess creates a host process owning mem.
func (s *SGX) NewProcess(mem phys.Region) (*SGXProcess, error) {
	if err := mem.Validate(); err != nil {
		return nil, err
	}
	ept := hw.NewEPT()
	if err := ept.Map(mem, hw.PermRWX); err != nil {
		return nil, err
	}
	return &SGXProcess{
		sgx:     s,
		Mem:     mem,
		hostEPT: ept,
		hostCtx: &hw.Context{Owner: uint64(s.nextID), Filter: ept},
	}, nil
}

// SGXEnclave is one enclave: an ELRANGE inside a host process.
type SGXEnclave struct {
	proc    *SGXProcess
	ELRange phys.Region
	Entry   phys.Addr
	// Measurement is the MRENCLAVE analogue.
	Measurement tpm.Digest

	ctx *hw.Context
	ept *hw.EPT
	// insideEnclave marks contexts created by this enclave's execution
	// (used to detect nesting attempts).
}

// CreateEnclave builds an enclave at elrange within the process,
// entered at entry. fromEnclave marks a creation attempt issued by code
// already running inside an enclave — real SGX has no instruction for
// this; the model returns ErrSGXNoNesting.
func (p *SGXProcess) CreateEnclave(elrange phys.Region, entry phys.Addr, fromEnclave bool) (*SGXEnclave, error) {
	if fromEnclave {
		return nil, ErrSGXNoNesting
	}
	if err := elrange.Validate(); err != nil {
		return nil, err
	}
	if !p.Mem.ContainsRegion(elrange) {
		return nil, ErrSGXOutsideProcess
	}
	for _, e := range p.Enclaves {
		if e.ELRange.Overlaps(elrange) {
			return nil, ErrSGXELRangeOverlap
		}
	}
	pages := elrange.Pages()
	if p.sgx.epcUsed+pages > p.sgx.epcBudget {
		return nil, ErrSGXEPCExhausted
	}
	p.sgx.epcUsed += pages
	p.sgx.mach.Clock.Advance(pages * SGXEAddCost)

	// Enclave view: its ELRANGE fully, PLUS the whole host process —
	// the implicit untrusted access §4.2 contrasts with Tyche's
	// explicit sharing. A buggy enclave can write secrets anywhere in
	// the process.
	ept := hw.NewEPT()
	if err := ept.Map(p.Mem, hw.PermRW); err != nil {
		return nil, err
	}
	if err := ept.Map(elrange, hw.PermRWX); err != nil {
		return nil, err
	}
	// Host view loses the ELRANGE.
	if err := p.hostEPT.Unmap(elrange); err != nil {
		return nil, err
	}
	data, err := p.sgx.mach.Mem.View(elrange)
	if err != nil {
		return nil, err
	}
	e := &SGXEnclave{
		proc:        p,
		ELRange:     elrange,
		Entry:       entry,
		Measurement: tpm.Measure(data),
		ept:         ept,
		ctx:         &hw.Context{Owner: uint64(p.sgx.nextID), Filter: ept, Entry: entry},
	}
	p.sgx.nextID++
	p.Enclaves = append(p.Enclaves, e)
	return e, nil
}

// EEnter switches the core into the enclave (expensive world switch).
func (e *SGXEnclave) EEnter(core *hw.Core) {
	e.proc.sgx.mach.Clock.Advance(SGXEEnterCost)
	core.InstallContext(e.ctx)
	core.PC = e.Entry
}

// EExit switches the core back to the host process.
func (e *SGXEnclave) EExit(core *hw.Core) {
	e.proc.sgx.mach.Clock.Advance(SGXEExitCost)
	core.InstallContext(e.proc.hostCtx)
}

// ShareEPC models an attempt to map one enclave's protected page into
// another enclave: impossible on SGX.
func (e *SGXEnclave) ShareEPC(*SGXEnclave, phys.Region) error { return ErrSGXNoSharing }
