package bench

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/binary"
	"fmt"

	"github.com/tyche-sim/tyche/internal/attest"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/tpm"
)

func init() {
	register(Experiment{
		ID:    "F2",
		Title: "Confidential SaaS processing through an untrusted provider",
		Paper: "Figure 2",
		Gates: []Gate{
			{"attestation-policies", "policy_violations", eq(0), "Figure 2: the customer verifies sealing, measurements and controlled sharing first"},
			{"key-binding", "key_bound", eq(1), "the exchanged key is the attested one"},
			{"ecdh-agreement", "keys_agree", eq(1), "customer and engine derive one secret"},
			{"ciphertext-correct", "ciphertext_matches", eq(1), "the enclave's own code encrypts the data"},
			{"ciphertext-correct", "encrypted_bytes / plaintext_bytes", eq(1), "all of it"},
			{"attacks-denied", "provider_probes_allowed", eq(0), "the untrusted provider and its device are denied on every probe"},
			{"no-plaintext-visible", "provider_visible_secrets", eq(0), "provider-visible bytes hold neither key nor plaintext"},
		},
	}, runF2)
}

// runF2 executes Figure 2 end to end: the customer attests the crypto
// engine, SaaS app, and GPU domain; provisions a key over X25519 bound
// to the attestation; the app's data is encrypted by the crypto
// engine's interpreted code and leaves through the GPU — while the
// compromised provider (dom0) observes nothing but public values and
// is denied on every probe.
func runF2(cfg Config, res *Result) error {
	res.Columns = []string{"event", "actor", "outcome"}
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return err
	}
	d, err := buildSaaS(w)
	if err != nil {
		return err
	}
	res.row("deploy SaaS VM + crypto engine + app + GPU domain", "provider/VM", "ok")

	// --- Crypto engine generates its key-exchange key and binds it to
	// its attestation (REPORTDATA), publishing the public key in the
	// provider-relayed mailbox.
	x := ecdh.X25519()
	enginePriv, err := x.GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	enginePub := enginePriv.PublicKey().Bytes()
	if err := w.mon.SetReportData(d.crypto.ID(), d.crypto.ID(), tpm.Measure(enginePub)); err != nil {
		return err
	}
	if err := d.mailbox.WriteAs(d.crypto.ID(), 0, enginePub); err != nil {
		return err
	}
	res.row("engine publishes X25519 key, binds hash into report", "crypto engine", "ok")

	// --- The customer verifies the whole chain before trusting
	// anything.
	verifier := attest.NewVerifier(w.rot.EndorsementKey(), core.DefaultIdentity)
	bootNonce := []byte("f2-boot")
	quote, err := w.mon.BootQuote(bootNonce)
	if err != nil {
		return err
	}
	sess, err := verifier.NewSession(quote, bootNonce)
	if err != nil {
		return err
	}
	nonce := []byte("f2-domains")
	repCrypto, err := d.crypto.Attest(nonce)
	if err != nil {
		return err
	}
	repApp, err := d.app.Attest(nonce)
	if err != nil {
		return err
	}
	repGPU, err := d.gpuDom.Attest(nonce)
	if err != nil {
		return err
	}
	repDom0, err := w.mon.Attest(core.InitialDomain, nonce)
	if err != nil {
		return err
	}
	for _, r := range []*core.Report{repCrypto, repApp, repGPU} {
		if err := sess.VerifyDomain(r, nonce); err != nil {
			return fmt.Errorf("verifying domain %d: %w", r.Domain, err)
		}
	}
	wantCrypto, err := d.cryptoImg.Measurement(d.crypto.Base())
	if err != nil {
		return err
	}
	wantApp, err := d.appImg.Measurement(d.app.Base())
	if err != nil {
		return err
	}
	violations := count(
		attest.RequireSealed(repCrypto) != nil,
		attest.RequireMeasurement(repCrypto, wantCrypto) != nil,
		attest.RequireSharedOnlyWith(repCrypto, repApp, repDom0) != nil,
		attest.RequireSealed(repApp) != nil,
		attest.RequireMeasurement(repApp, wantApp) != nil,
		attest.RequireSharedOnlyWith(repApp, repCrypto, repGPU) != nil,
		attest.RequireSealed(repGPU) != nil,
		attest.RequireSharedOnlyWith(repGPU, repApp) != nil)
	res.row("verify sealed + measurements + controlled sharing", "customer", boolCell(violations == 0))
	res.metric("policy_violations", violations)

	// The mailbox key is the attested one (no provider MITM: REPORTDATA
	// binds it).
	mailboxPub, err := d.mailbox.Read(0, uint64(len(enginePub)))
	if err != nil {
		return err
	}
	bound := tpm.Measure(mailboxPub) == repCrypto.ReportData
	res.row("check mailbox key against signed REPORTDATA", "customer", boolCell(bound))
	res.metric("key_bound", bit(bound))

	// --- Key provisioning: X25519 both ways; the shared secret becomes
	// the stream key, which the engine installs into its private page.
	customerPriv, err := x.GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	if err := d.mailbox.WriteAs(core.InitialDomain, 64, customerPriv.PublicKey().Bytes()); err != nil {
		return err
	}
	customerKey, err := customerPriv.ECDH(enginePriv.PublicKey())
	if err != nil {
		return err
	}
	// Engine side: read the customer key from the mailbox, derive the
	// same secret, install it privately.
	peerBytes, err := d.mailbox.ReadAs(d.crypto.ID(), 64, 32)
	if err != nil {
		return err
	}
	peerPub, err := x.NewPublicKey(peerBytes)
	if err != nil {
		return err
	}
	engineKey, err := enginePriv.ECDH(peerPub)
	if err != nil {
		return err
	}
	if err := w.mon.CopyInto(d.crypto.ID(), d.keySeg.Start, engineKey); err != nil {
		return err
	}
	res.row("provision key via X25519 through the mailbox", "customer+engine", "ok")
	res.metric("keys_agree", bit(bytes.Equal(customerKey, engineKey)))

	// --- Data path: the app stages plaintext, calls the crypto engine
	// (interpreted XOR service), moves ciphertext to the GPU buffer,
	// and the GPU DMAs it into its framebuffer.
	plaintext := []byte("attested confidential pipeline: the provider sees only ciphertext")
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(plaintext)))
	if err := w.mon.CopyInto(d.app.ID(), d.chanSeg.Start, append(hdr[:], plaintext...)); err != nil {
		return err
	}
	if err := d.app.Launch(saasCore); err != nil {
		return err
	}
	runRes, err := w.mon.RunCore(saasCore, 100000)
	if err != nil {
		return err
	}
	if runRes.Trap.Kind != hw.TrapHalt {
		return fmt.Errorf("app run ended with %v", runRes.Trap)
	}
	encrypted := w.mach.Core(saasCore).Regs[1]
	res.row(fmt.Sprintf("app calls crypto engine, %d bytes encrypted in enclave code", encrypted), "app+engine", "ok")

	ciphertext, err := w.mon.CopyFrom(d.app.ID(), d.chanSeg.Start+8, uint64(len(plaintext)))
	if err != nil {
		return err
	}
	if err := w.mon.CopyInto(d.app.ID(), d.gpuBuf.Start, ciphertext); err != nil {
		return err
	}
	gpu := w.mach.Device(0)
	if err := gpu.DMACopy(d.gpuBuf.Start, d.fbSeg.Start, uint64(len(ciphertext))); err != nil {
		return fmt.Errorf("gpu dma: %w", err)
	}
	res.row("GPU DMAs ciphertext into its framebuffer", "gpu domain", "ok")

	// Customer decrypts what left the machine.
	want := make([]byte, len(plaintext))
	for i := range plaintext {
		want[i] = plaintext[i] ^ customerKey[i%32]
	}
	res.metric("ciphertext_matches", bit(bytes.Equal(ciphertext, want)))
	res.metric("encrypted_bytes", float64(encrypted))
	res.metric("plaintext_bytes", float64(len(plaintext)))

	// --- Attack phase: the compromised provider probes everything.
	_, keyErr := w.mon.CopyFrom(core.InitialDomain, d.keySeg.Start, 32)
	res.row("provider reads engine key page", "attacker (dom0)", boolCell(keyErr == nil))
	_, ptErr := w.mon.CopyFrom(core.InitialDomain, d.chanSeg.Start, 16)
	res.row("provider reads app<->engine channel", "attacker (dom0)", boolCell(ptErr == nil))
	_, fbErr := w.mon.CopyFrom(core.InitialDomain, d.fbSeg.Start, 16)
	res.row("provider reads GPU framebuffer", "attacker (dom0)", boolCell(fbErr == nil))
	dmaErr := gpu.DMARead(d.keySeg.Start, make([]byte, 32))
	res.row("GPU DMA probes engine key page", "attacker (device)", boolCell(dmaErr == nil))
	res.metric("provider_probes_allowed", count(keyErr == nil, ptErr == nil, fbErr == nil, dmaErr == nil))

	// The provider-visible mailbox holds only public values.
	visible, err := d.mailbox.ReadAs(core.InitialDomain, 0, 96)
	if err != nil {
		return err
	}
	res.metric("provider_visible_secrets", count(bytes.Contains(visible, engineKey), bytes.Contains(visible, plaintext)))
	res.note("key exchange is real X25519; XOR stream stands in for AES-GCM (see DESIGN.md)")
	return nil
}
