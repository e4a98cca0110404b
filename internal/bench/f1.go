package bench

import (
	"errors"

	"github.com/tyche-sim/tyche/internal/attest"
	"github.com/tyche-sim/tyche/internal/core"
)

func init() {
	register(Experiment{
		ID:    "F1",
		Title: "Separation of powers: boot → measure → legislate → enforce → attest → verify",
		Paper: "Figure 1",
		Run:   runF1,
	})
}

// runF1 walks the full Figure-1 loop once and records which branch of
// the separation of powers performed each step, checking that the
// judiciary (remote verifier) accepts the honest run and rejects a
// tampered one.
func runF1(cfg Config) (*Result, error) {
	res := &Result{
		ID: "F1", Title: "Separation of powers",
		Columns: []string{"step", "power", "actor", "outcome"},
	}
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return nil, err
	}
	res.row("measured boot (firmware+monitor PCRs)", "judiciary", "TPM", "ok")

	// Legislative: an unprivileged domain (not the monitor, not the OS
	// kernel) defines the isolation policy by loading an enclave.
	img := addImage("f1-enclave", 1)
	enc, err := w.cl.NewEnclave(img, loadOn(1))
	if err != nil {
		return nil, err
	}
	res.row("define enclave policy (grant+seal)", "legislative", "dom0 software", "ok")
	res.row("program EPT/PMP + mediate transfers", "executive", "isolation monitor", "ok")

	// Judiciary: remote verifier establishes the chain and checks the
	// domain.
	verifier := attest.NewVerifier(w.rot.EndorsementKey(), core.DefaultIdentity)
	bootNonce := []byte("f1-boot")
	quote, err := w.mon.BootQuote(bootNonce)
	if err != nil {
		return nil, err
	}
	sess, err := verifier.NewSession(quote, bootNonce)
	if err != nil {
		return nil, err
	}
	res.row("verify boot quote (tier 1)", "judiciary", "remote verifier", "ok")

	nonce := []byte("f1-domain")
	rep, err := enc.Attest(nonce)
	if err != nil {
		return nil, err
	}
	if err := sess.VerifyDomain(rep, nonce); err != nil {
		return nil, err
	}
	wantMeas, err := img.Measurement(enc.Base())
	if err != nil {
		return nil, err
	}
	policyErr := errors.Join(
		attest.RequireSealed(rep),
		attest.RequireMeasurement(rep, wantMeas),
		attest.RequireExclusiveMemory(rep),
	)
	res.row("verify domain report + policy (tier 2)", "judiciary", "remote verifier", boolCell(policyErr == nil))
	res.check("honest-chain-accepted", policyErr == nil, "two-tier attestation verified: %v", policyErr)

	// Negative control 1: a different (untrusted) monitor identity.
	evilVerifier := attest.NewVerifier(w.rot.EndorsementKey(), []byte("trojaned monitor"))
	_, evilErr := evilVerifier.VerifyBoot(quote, bootNonce)
	res.row("reject unknown monitor measurement", "judiciary", "remote verifier", boolCell(evilErr != nil))
	res.check("unknown-monitor-rejected", errors.Is(evilErr, attest.ErrUntrustedMonitor), "%v", evilErr)

	// Negative control 2: tampered report.
	tampered := *rep
	tampered.Sealed = false
	tErr := sess.VerifyDomain(&tampered, nonce)
	res.row("reject tampered report", "judiciary", "remote verifier", boolCell(tErr != nil))
	res.check("tampered-report-rejected", tErr != nil, "%v", tErr)

	// Negative control 3: the executive refuses an invalid policy (a
	// domain delegating a capability it does not own).
	_, stealErr := w.mon.Share(enc.ID(), 1 /* dom0's root node */, enc.ID(),
		rep.Resources[0].Resource, 0, 0)
	res.row("reject invalid policy (foreign capability)", "executive", "isolation monitor", boolCell(stealErr != nil))
	res.check("invalid-policy-rejected", stealErr != nil, "%v", stealErr)

	res.note("backend=%s; the monitor never defines policy, only validates and enforces it", w.mon.Backend())
	return res, nil
}
