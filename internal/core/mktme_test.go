package core

import (
	"bytes"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
)

func bootEncrypted(t testing.TB) *Monitor {
	t.Helper()
	mach, err := hw.NewMachine(hw.Config{
		MemBytes: 8 << 20, NumCores: 2, IOMMUAllowByDefault: true,
		MemoryEncryption: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rot, err := tpm.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Boot(BootConfig{Machine: mach, TPM: rot})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEncryptionKeysFollowExclusivity(t *testing.T) {
	m := bootEncrypted(t)
	if m.Machine().Crypto == nil {
		t.Fatal("encryption not active")
	}
	eng := m.Machine().Crypto
	// After boot, dom0's exclusive memory is keyed under dom0's key.
	k0, ok := m.DomainKeyID(InitialDomain)
	if !ok {
		t.Fatal("dom0 has no key")
	}
	if eng.KeyOf(0x1000) != k0 {
		t.Fatal("dom0 memory not keyed")
	}

	// Grant pages to an enclave: they re-key to the enclave's key.
	enclave, err := m.CreateDomain(InitialDomain, "e")
	if err != nil {
		t.Fatal(err)
	}
	node := dom0MemNode(t, m)
	secretRegion := phys.MakeRegion(64*pg, 2*pg)
	secret := []byte("physical-attackers-cant-see-this")
	if err := m.CopyInto(InitialDomain, secretRegion.Start, secret); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Grant(InitialDomain, node, enclave, cap.MemResource(secretRegion), cap.MemRW|cap.RightShare, cap.CleanObfuscate); err != nil {
		t.Fatal(err)
	}
	ke, ok := m.DomainKeyID(enclave)
	if !ok {
		t.Fatal("enclave has no key")
	}
	if eng.KeyOf(secretRegion.Start) != ke {
		t.Fatalf("granted region keyed %d, want enclave key %d", eng.KeyOf(secretRegion.Start), ke)
	}

	// Physical dump: ciphertext; the enclave's own read: plaintext.
	raw, err := eng.RawView(m.Machine().Mem, secretRegion)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, secret) {
		t.Fatal("physical dump leaked the secret")
	}
	view, err := m.CopyFrom(enclave, secretRegion.Start, uint64(len(secret)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view, secret) {
		t.Fatal("enclave accessor path broken")
	}

	// Sharing part of the region drops it to the platform key (both
	// parties must access it).
	other, err := m.CreateDomain(InitialDomain, "peer")
	if err != nil {
		t.Fatal(err)
	}
	encNodes := m.OwnerNodes(enclave)
	if _, err := m.Share(enclave, encNodes[0].ID, other, cap.MemResource(phys.MakeRegion(64*pg, pg)), cap.MemRW, cap.CleanZero); err != nil {
		t.Fatal(err)
	}
	if eng.KeyOf(64*pg) != hw.KeyPlaintext {
		t.Fatal("shared page should use the platform key")
	}
	if eng.KeyOf(65*pg) != ke {
		t.Fatal("still-exclusive page must stay under the enclave key")
	}

	// Kill: the key is crypto-erased.
	if err := m.KillDomain(InitialDomain, enclave); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.DomainKeyID(enclave); ok {
		t.Fatal("dead domain's key survived")
	}
}

func TestEncryptionAbsentIsNoop(t *testing.T) {
	m := bootWorld(t, BackendVTX)
	if m.Machine().Crypto != nil {
		t.Fatal("encryption active without engine")
	}
	if _, ok := m.DomainKeyID(InitialDomain); ok {
		t.Fatal("key allocated without engine")
	}
	// Mutations run fine with no engine.
	enclave, err := m.CreateDomain(InitialDomain, "e")
	if err != nil {
		t.Fatal(err)
	}
	node := dom0MemNode(t, m)
	if _, err := m.Grant(InitialDomain, node, enclave, memRes(64, 1), cap.MemRW, cap.CleanNone); err != nil {
		t.Fatal(err)
	}
}
