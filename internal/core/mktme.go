package core

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/hw"
)

// Memory-encryption policy (§4.2 future work: "building physical attack
// resistance with multi-key memory encryption technologies"). When the
// machine has an MKTME engine, the monitor keys memory by *trust*, not
// by request: every region held exclusively (reference count 1) is
// encrypted under its owner's key; explicitly shared regions fall back
// to the platform key so both parties can access them; killing a domain
// crypto-erases its key before its pages return to the granter. The
// policy piggybacks on the same reference-count map verifiers see —
// another dividend of exact system-wide refcounts.

// domainKey returns (allocating on first use) the domain's memory
// encryption key.
func (m *Monitor) domainKey(id DomainID) (hw.KeyID, error) {
	if k, ok := m.memKeys[id]; ok {
		return k, nil
	}
	k, err := m.mach.Crypto.AllocKey()
	if err != nil {
		return 0, err
	}
	m.memKeys[id] = k
	return k, nil
}

// syncEncryption retags the whole physical address space from the
// current reference-count map. Called after every capability mutation
// when encryption is on.
func (m *Monitor) syncEncryption() error {
	if m.mach.Crypto == nil {
		return nil
	}
	for _, rc := range m.space.RefCounts() {
		key := hw.KeyPlaintext
		if rc.Count == 1 {
			owner := DomainID(rc.Owners[0])
			k, err := m.domainKey(owner)
			if err != nil {
				return err
			}
			key = k
		}
		if err := m.mach.Crypto.SetRegionKey(rc.Region, key); err != nil {
			return fmt.Errorf("core: keying %v: %w", rc.Region, err)
		}
	}
	return nil
}

// CryptoErase drops a dead domain's memory encryption key, rendering
// any stale DRAM image of its pages unrecoverable even to a physical
// attacker who captured it before the zeroing cleanup ran.
func (m *Monitor) cryptoErase(id DomainID) {
	if m.mach.Crypto == nil {
		return
	}
	if k, ok := m.memKeys[id]; ok {
		m.mach.Crypto.FreeKey(k)
		delete(m.memKeys, id)
	}
}

// DomainKeyID exposes the key a domain's exclusive memory is encrypted
// under (diagnostics; key material never leaves the engine).
func (m *Monitor) DomainKeyID(id DomainID) (hw.KeyID, bool) {
	k, ok := m.memKeys[id]
	return k, ok
}
