package hw

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/tyche-sim/tyche/internal/phys"
)

// MKTME models multi-key total memory encryption — the §4.2 extension
// "building physical attack resistance with multi-key memory encryption
// technologies [MKTME, SEV]". The memory controller encrypts each cache
// line with the key selected by the accessing page's KeyID, so software
// (and the monitor) see plaintext through normal accesses while a
// physical attacker — cold boot, bus interposer, a DMA path below the
// IOMMU — sees only ciphertext, different per key domain.
//
// Modelling note: PhysMem keeps the logical (plaintext) contents and
// the engine derives the DRAM image on demand (RawView). This is
// observationally equivalent for the attacker experiments — accessors
// get plaintext, physical dumps get ciphertext — without routing every
// simulator access through AES. The keystream is AES-128 in counter
// mode with the block's physical address as the deterministic tweak
// (an XTS-like construction; like real MKTME, rewriting the same
// plaintext to the same line yields the same ciphertext).
type MKTME struct {
	keys    map[KeyID]cipher.Block
	pageKey map[uint64]KeyID
	nextKey KeyID
	rng     io.Reader
}

// KeyID selects a memory encryption key. KeyPlaintext (0) disables
// encryption for the page — the commodity default.
type KeyID uint16

// KeyPlaintext is the no-encryption key ID.
const KeyPlaintext KeyID = 0

// NewMKTME returns an engine with no keys programmed (rng nil selects
// crypto/rand).
func NewMKTME(rng io.Reader) *MKTME {
	if rng == nil {
		rng = rand.Reader
	}
	return &MKTME{
		keys:    make(map[KeyID]cipher.Block),
		pageKey: make(map[uint64]KeyID),
		nextKey: 1,
		rng:     rng,
	}
}

// AllocKey programs a fresh random key and returns its ID.
func (m *MKTME) AllocKey() (KeyID, error) {
	var key [16]byte
	if _, err := io.ReadFull(m.rng, key[:]); err != nil {
		return 0, fmt.Errorf("hw: mktme key generation: %w", err)
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return 0, err
	}
	id := m.nextKey
	m.nextKey++
	m.keys[id] = block
	return id, nil
}

// FreeKey discards a key: ciphertext under it becomes undecryptable
// (crypto-erase). Pages still tagged with it fall back to plaintext
// semantics only after retagging; RawView of such pages returns
// unrecoverable bytes.
func (m *MKTME) FreeKey(id KeyID) {
	delete(m.keys, id)
}

// SetRegionKey tags every page of r with the key.
func (m *MKTME) SetRegionKey(r phys.Region, id KeyID) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if id != KeyPlaintext {
		if _, ok := m.keys[id]; !ok {
			return fmt.Errorf("hw: mktme key %d not programmed", id)
		}
	}
	for pg := r.Start.Page(); pg < r.End.Page(); pg++ {
		if id == KeyPlaintext {
			delete(m.pageKey, pg)
		} else {
			m.pageKey[pg] = id
		}
	}
	return nil
}

// KeyOf returns the key tagging the page containing a.
func (m *MKTME) KeyOf(a phys.Addr) KeyID { return m.pageKey[a.Page()] }

// keystream fills out with the AES-CTR keystream for the 16-byte block
// at addr (block-aligned).
func (m *MKTME) keystream(block cipher.Block, addr uint64, out *[16]byte) {
	var tweak [16]byte
	binary.LittleEndian.PutUint64(tweak[:8], addr)
	block.Encrypt(out[:], tweak[:])
}

// RawView returns the DRAM image of region r as a physical attacker
// would capture it: plaintext pages verbatim, keyed pages encrypted
// under their key (or unrecoverable randomness-like bytes if the key
// was crypto-erased — modelled as encryption under a dead-key marker).
func (m *MKTME) RawView(mem *PhysMem, r phys.Region) ([]byte, error) {
	plain, err := mem.View(r)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(plain))
	copy(out, plain)
	for off := 0; off < len(out); off += 16 {
		addr := uint64(r.Start) + uint64(off)
		id := m.pageKey[phys.Addr(addr).Page()]
		if id == KeyPlaintext {
			continue
		}
		block, ok := m.keys[id]
		if !ok {
			// Crypto-erased: derive an unrecoverable pattern from the
			// address so dumps are deterministic but meaningless.
			for i := 0; i < 16 && off+i < len(out); i++ {
				out[off+i] = byte(addr>>uint(i%8)) ^ 0xa5
			}
			continue
		}
		var ks [16]byte
		m.keystream(block, addr, &ks)
		for i := 0; i < 16 && off+i < len(out); i++ {
			out[off+i] ^= ks[i]
		}
	}
	return out, nil
}
