package bench

import (
	"bytes"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "C10",
		Title: "Physical attack resistance via multi-key memory encryption",
		Paper: "§4.2 future work: 'building physical attack resistance with multi-key memory encryption technologies'",
		Run:   runC10,
	})
}

// runC10 exercises the MKTME extension: the same cold-boot-style DRAM
// capture is taken against a machine without memory encryption and one
// with it. Shape: the plain machine leaks every domain's secrets to the
// physical attacker; the encrypted machine leaks nothing, keys memory
// per-domain (identical plaintext in two enclaves yields different
// DRAM images), falls back to the platform key on explicitly shared
// pages, and crypto-erases keys at domain teardown.
func runC10(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C10", Title: "Memory encryption",
		Columns: []string{"probe", "no encryption", "MKTME"},
	}
	secret := []byte("cold-boot-target-0123456789abcdef")

	// A helper world builder with a keyed secret inside an enclave.
	type setup struct {
		w       *world
		region  phys.Region
		enclave core.DomainID
	}
	build := func(encrypted bool) (*setup, error) {
		o := defaultWorldOpts()
		o.encryption = encrypted
		w, err := newWorld(cfg, o)
		if err != nil {
			return nil, err
		}
		enclave, err := w.mon.CreateDomain(core.InitialDomain, "vault")
		if err != nil {
			return nil, err
		}
		region := phys.MakeRegion(256*phys.PageSize, 2*phys.PageSize)
		if err := w.mon.CopyInto(core.InitialDomain, region.Start, secret); err != nil {
			return nil, err
		}
		if _, err := w.mon.Grant(core.InitialDomain, w.cl.HeapNode(), enclave, cap.MemResource(region), cap.MemRW|cap.RightShare, cap.CleanObfuscate); err != nil {
			return nil, err
		}
		return &setup{w: w, region: region, enclave: enclave}, nil
	}

	plain, err := build(false)
	if err != nil {
		return nil, err
	}
	enc, err := build(true)
	if err != nil {
		return nil, err
	}

	// Probe 1: cold-boot capture of the enclave's pages.
	dumpPlain, err := rawDump(plain.w, plain.region)
	if err != nil {
		return nil, err
	}
	dumpEnc, err := rawDump(enc.w, enc.region)
	if err != nil {
		return nil, err
	}
	plainLeaks := bytes.Contains(dumpPlain, secret)
	encLeaks := bytes.Contains(dumpEnc, secret)
	res.row("cold-boot dump of enclave pages",
		boolCellWord(plainLeaks, "SECRET LEAKED", "ciphertext only"),
		boolCellWord(encLeaks, "SECRET LEAKED", "ciphertext only"))
	res.check("dram-capture-blocked", plainLeaks && !encLeaks,
		"plain machine leaks the secret to a physical capture; MKTME machine does not")

	// Probe 2: software path unchanged — the enclave itself reads its
	// plaintext through the controller.
	view, err := enc.w.mon.CopyFrom(enc.enclave, enc.region.Start, uint64(len(secret)))
	if err != nil {
		return nil, err
	}
	res.row("enclave's own read (through controller)", "plaintext", "plaintext")
	res.check("accessor-transparent", bytes.Equal(view, secret), "software accessors unaffected by keying")

	// Probe 3: per-domain keys — a second enclave with IDENTICAL
	// plaintext dumps differently.
	enclave2, err := enc.w.mon.CreateDomain(core.InitialDomain, "vault2")
	if err != nil {
		return nil, err
	}
	region2 := phys.MakeRegion(512*phys.PageSize, 2*phys.PageSize)
	if err := enc.w.mon.CopyInto(core.InitialDomain, region2.Start, secret); err != nil {
		return nil, err
	}
	if _, err := enc.w.mon.Grant(core.InitialDomain, enc.w.cl.HeapNode(), enclave2, cap.MemResource(region2), cap.MemRW, cap.CleanObfuscate); err != nil {
		return nil, err
	}
	dump2, err := rawDump(enc.w, region2)
	if err != nil {
		return nil, err
	}
	distinct := !bytes.Equal(dumpEnc[:64], dump2[:64]) && !bytes.Contains(dump2, secret)
	res.row("two enclaves, identical plaintext", "identical images", boolCellWord(distinct, "distinct images", "IDENTICAL"))
	res.check("per-domain-keys", distinct, "equal plaintext under different domain keys yields different DRAM images")

	// Probe 4: shared pages fall back to the platform key so both
	// parties can use them.
	encNodes := enc.w.mon.OwnerNodes(enc.enclave)
	if _, err := enc.w.mon.Share(enc.enclave, encNodes[0].ID, enclave2, cap.MemResource(phys.MakeRegion(enc.region.Start, phys.PageSize)), cap.MemRW, cap.CleanZero); err != nil {
		return nil, err
	}
	sharedKey := enc.w.mach.Crypto.KeyOf(enc.region.Start)
	exclusiveKey := enc.w.mach.Crypto.KeyOf(enc.region.Start + phys.PageSize)
	res.row("shared page keying", "-", "platform key")
	res.check("shared-pages-platform-key", sharedKey == 0 && exclusiveKey != 0,
		"shared page keyed %d (platform), exclusive page keyed %d", sharedKey, exclusiveKey)

	// Probe 5: crypto-erase on teardown — even a capture taken *before*
	// zeroing is unrecoverable once the key is dropped.
	if err := enc.w.mon.KillDomain(core.InitialDomain, enclave2); err != nil {
		return nil, err
	}
	_, alive := enc.w.mon.DomainKeyID(enclave2)
	res.row("domain teardown", "secret zeroed only", boolCellWord(!alive, "zeroed + key crypto-erased", "KEY SURVIVED"))
	res.check("crypto-erase", !alive, "dead domain's key dropped from the engine")
	res.note("keying policy derives from the reference-count map: exclusive (refs=1) regions use the owner's key")
	return res, nil
}

func rawDump(w *world, r phys.Region) ([]byte, error) {
	if w.mach.Crypto == nil {
		return w.mach.Mem.View(r)
	}
	return w.mach.Crypto.RawView(w.mach.Mem, r)
}

func boolCellWord(ok bool, yes, no string) string {
	if ok {
		return yes
	}
	return no
}
