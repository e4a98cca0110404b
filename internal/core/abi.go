package core

import (
	"encoding/binary"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// Guest VMCall ABI: interpreted domain code reaches the monitor with the
// VMCALL instruction. Register conventions:
//
//	r0: call number (in), status (out; 0 = OK)
//	r1..r5: arguments (in), r1 also return value (out)
//
// The ABI covers what in-domain *code* needs at run time (identity,
// transfers, logging). Capability policy configuration happens through
// the Go-level API, standing in for libtyche issuing richer call
// sequences on the domain's behalf.
const (
	// CallSelfID returns the calling domain's ID in r1.
	CallSelfID uint64 = 1
	// CallDomainCall transfers control to the domain named by r1 (a
	// mediated call; the callee's HLT or CallReturn resumes the caller).
	CallDomainCall uint64 = 2
	// CallReturn returns to the caller domain; r1 is delivered as the
	// callee's result.
	CallReturn uint64 = 3
	// CallLog appends r1 to the domain's log buffer (the simulated
	// console; examples and tests read it back). Denied once the log
	// holds MaxDomainLog words.
	CallLog uint64 = 4
	// CallFastSwitch performs a pre-registered fast switch to the
	// domain named by r1.
	CallFastSwitch uint64 = 5
	// CallEnumerateLen returns in r1 the number of resources in the
	// caller's own enumeration (a guest-visible taste of §3.2's
	// "enumerate and attest a domain's resources").
	CallEnumerateLen uint64 = 6
	// CallShare derives a shared memory capability from guest code:
	// r1 = capability node, r2 = destination domain, r3 = start address,
	// r4 = size in bytes, r5 = rights (low 16 bits) | cleanup << 16.
	// Returns the new node in r1. This is the legislative power
	// exercised from *inside* a domain, no library in between.
	CallShare uint64 = 7
	// CallGrant is CallShare with exclusive-transfer semantics.
	CallGrant uint64 = 8
	// CallRevoke revokes capability r1 (and its derivation subtree).
	CallRevoke uint64 = 9
	// CallSealSelf seals the calling domain.
	CallSealSelf uint64 = 10
	// CallYield cooperatively ends the calling domain's time slice:
	// the run loop hands control back to the embedding scheduler
	// (RunResult.Yielded), which may requeue the vCPU behind its
	// siblings; execution resumes after the VMCALL at the next dispatch.
	CallYield uint64 = 11
	// CallRingSetup registers the caller's submission/completion ring:
	// r1 = base address, r2 = capacity in entries (see ring.go for the
	// layout). The footprint must be readable+writable by the caller.
	CallRingSetup uint64 = 12
	// CallRingFlush drains the caller's ring now — the batched ABI's
	// doorbell: one trap executes every enqueued descriptor, with
	// revocation shootdowns coalesced into one cross-core round.
	// Returns the number of descriptors executed in r1.
	CallRingFlush uint64 = 13
	// CallAttest produces an attestation report for the caller itself
	// (r1 = a guest-chosen nonce seed) and returns the first 8 bytes of
	// its measurement in r1 — the guest-visible taste of the judiciary
	// power; full reports travel through the Go-level API.
	CallAttest uint64 = 14
)

// VMCall status codes returned in r0.
const (
	StatusOK uint64 = 0
	// StatusBadCall reports an unknown call number.
	StatusBadCall uint64 = 1
	// StatusDenied reports a validated-and-rejected operation.
	StatusDenied uint64 = 2
)

// MaxDomainLog bounds a domain's log buffer, in words. CallLog is the
// one verb that grows monitor memory on a guest's say-so — a word per
// trap, up to MaxRingEntries words per doorbell — so it is bounded:
// past the bound the call is denied and the log keeps its first
// MaxDomainLog words. The longest log any test, example or experiment
// wrote when the bound was set is 9 words; one full ring of them
// (32 KiB a domain) is a generous console and a harmless ceiling.
const MaxDomainLog = MaxRingEntries

// handleVMCall services one guest hypercall on core. It runs with no
// monitor lock held — RunCore dispatches traps lock-free and every
// operation takes exactly the entry it needs. What is decoded here is
// what only a trap can do: the transfer verbs (a direct switch — a
// request executes one CallReturn and must not pay a call layer), the
// ring doorbell and registration, the yield, and CallRevoke as a full
// synchronous Revoke (a destructive entry). Every other verb is
// execVerb's, run under one pinned reader entry. It returns stop=true
// when the run loop should hand control back to the embedder
// (CallYield).
func (m *Monitor) handleVMCall(c *hw.Core, core phys.CoreID) (stop bool) {
	cur := DomainID(c.Context().Owner)
	call := c.Regs[0]
	m.emitCore(core, trace.KVMCall, cur, call, 0, 0, 0)
	switch call {
	case CallDomainCall:
		// On success execution continues in the target; its return will
		// land after the caller's VMCALL with r0/r1 set by Return.
		if err := m.Call(core, DomainID(c.Regs[1])); err != nil {
			c.Regs[0] = StatusDenied
		}
	case CallReturn:
		ret := c.Regs[1]
		if err := m.Return(core); err != nil {
			c.Regs[0] = StatusDenied
			return false
		}
		c.Regs[0] = StatusOK
		c.Regs[1] = ret
	case CallFastSwitch:
		if err := m.FastSwitch(core, DomainID(c.Regs[1])); err != nil {
			c.Regs[0] = StatusDenied
		}
	case CallYield:
		c.Regs[0] = StatusOK
		return true
	case CallRevoke:
		c.Regs[0] = statusOf(m.Revoke(cur, cap.NodeID(c.Regs[1])))
	case CallRingSetup:
		c.Regs[0] = statusOf(m.RingSetup(cur, phys.Addr(c.Regs[1]), c.Regs[2]))
	case CallRingFlush:
		n, err := m.ringFlush(cur, int32(core))
		c.Regs[1] = n
		c.Regs[0] = statusOf(err)
	default:
		p := m.renter()
		status, result, yields := m.execVerb(cur, call, c.Regs[1], c.Regs[2], c.Regs[3], c.Regs[4], c.Regs[5])
		m.rexit(p)
		c.Regs[0] = status
		if yields {
			c.Regs[1] = result
		}
	}
	return false
}

// statusOf maps an API result onto the guest's status word.
func statusOf(err error) uint64 {
	if err != nil {
		return StatusDenied
	}
	return StatusOK
}

// execVerb is the one body of every guest verb that is neither a
// control transfer nor path-specific, run with the caller's monitor
// entry already held: the trap path's reader pin, or the drain round's
// destructive entry (ring.go). It returns the status, and the verb's
// value when yields — a trap leaves r1 alone otherwise, a completion
// carries 0. Verbs it does not know, which is also every verb only one
// path may issue, are StatusBadCall.
func (m *Monitor) execVerb(owner DomainID, verb, a1, a2, a3, a4, a5 uint64) (status, result uint64, yields bool) {
	switch verb {
	case CallSelfID:
		return StatusOK, uint64(owner), true
	case CallLog:
		if d, ok := m.tab.Load().get(owner); ok {
			d.mu.Lock()
			full := len(d.logbuf) >= MaxDomainLog
			if !full {
				d.logbuf = append(d.logbuf, a1)
			}
			d.mu.Unlock()
			if full {
				m.stats.deniedOps.Add(1)
				return StatusDenied, 0, false
			}
		}
		return StatusOK, 0, false
	case CallEnumerateLen:
		return StatusOK, uint64(len(m.enumerate(cap.OwnerID(owner)))), true
	case CallShare, CallGrant:
		sub := cap.MemResource(phys.MakeRegion(phys.Addr(a3), a4))
		id, err := m.delegate(owner, cap.NodeID(a1), DomainID(a2), sub,
			cap.Rights(a5&0xffff), cap.Cleanup(a5>>16), verb == CallGrant)
		if err != nil {
			return StatusDenied, 0, false
		}
		return StatusOK, uint64(id), true
	case CallSealSelf:
		_, err := m.seal(owner, owner)
		return statusOf(err), 0, false
	case CallAttest:
		var nonce [8]byte
		binary.LittleEndian.PutUint64(nonce[:], a1)
		rep, d, err := m.buildReport(owner, nonce[:])
		if err == nil {
			rep, err = m.commitReport(rep, d)
		}
		if err != nil {
			return StatusDenied, 0, false
		}
		return StatusOK, binary.LittleEndian.Uint64(rep.Measurement[:8]), true
	default:
		return StatusBadCall, 0, false
	}
}
