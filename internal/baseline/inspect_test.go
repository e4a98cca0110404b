package baseline

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/hw"
)

// What the tests drive the baselines through beyond the experiments'
// paths: an SGX enclave's teardown, its EPC budget and its host
// context.

// EPCFree returns the remaining EPC pages.
func (s *SGX) EPCFree() uint64 { return s.epcBudget - s.epcUsed }

// Destroy releases the enclave's EPC pages and restores host access.
func (e *SGXEnclave) Destroy() error {
	p := e.proc
	for i, cand := range p.Enclaves {
		if cand == e {
			p.Enclaves = append(p.Enclaves[:i], p.Enclaves[i+1:]...)
			p.sgx.epcUsed -= e.ELRange.Pages()
			// EREMOVE scrubs EPC pages.
			if err := p.sgx.mach.Mem.Zero(e.ELRange); err != nil {
				return err
			}
			return p.hostEPT.Map(e.ELRange, hw.PermRWX)
		}
	}
	return fmt.Errorf("sgx: enclave already destroyed")
}

// HostContext returns the process's (non-enclave) execution context.
func (p *SGXProcess) HostContext() *hw.Context { return p.hostCtx }
