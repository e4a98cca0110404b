// Package attest implements the remote-verifier side of the two-tier
// attestation protocol (§3.4): establishing trust in a specific
// isolation monitor via the TPM chain, verifying domain reports signed
// by that monitor, and evaluating controlled-sharing policies over the
// attested resource enumerations — the "customer" role in Figure 2.
package attest

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
)

// Verification errors.
var (
	ErrUntrustedMonitor = errors.New("attest: monitor measurement not in the trusted set")
	ErrStaleNonce       = errors.New("attest: nonce mismatch (replay?)")
	ErrKeyMismatch      = errors.New("attest: report not signed by the attested monitor key")
	ErrPolicy           = errors.New("attest: policy violation")
)

// Verifier is a remote relying party: it trusts a TPM endorsement key
// (from the manufacturer) and a set of monitor implementations (whose
// source it inspected, or that carry formal-verification evidence —
// §3.4's "trust in the monitor is derived from the attestation by
// comparing the measurement to a known expected value").
type Verifier struct {
	ek      ed25519.PublicKey
	trusted []tpm.Digest // expected PCR-17 values
}

// NewVerifier builds a verifier trusting the given endorsement key and
// monitor identity blobs.
func NewVerifier(ek ed25519.PublicKey, trustedMonitors ...[]byte) *Verifier {
	v := &Verifier{ek: append(ed25519.PublicKey(nil), ek...)}
	for _, id := range trustedMonitors {
		v.trusted = append(v.trusted, core.ExpectedMonitorPCR(id))
	}
	return v
}

// VerifyBoot checks tier one: the TPM quote proves the machine booted a
// trusted monitor, and binds the monitor's attestation key. It returns
// that key.
func (v *Verifier) VerifyBoot(q *tpm.Quote, nonce []byte) (ed25519.PublicKey, error) {
	if err := tpm.VerifyQuote(v.ek, q); err != nil {
		return nil, err
	}
	if !bytes.Equal(q.Nonce, nonce) {
		return nil, ErrStaleNonce
	}
	pcr, ok := tpm.QuotedPCR(q, tpm.PCRMonitor)
	if !ok {
		return nil, fmt.Errorf("attest: quote lacks the monitor PCR")
	}
	trusted := false
	for _, want := range v.trusted {
		if pcr == want {
			trusted = true
			break
		}
	}
	if !trusted {
		return nil, fmt.Errorf("%w: PCR17=%v", ErrUntrustedMonitor, pcr)
	}
	if len(q.UserData) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("attest: quote user data is not a key (%d bytes)", len(q.UserData))
	}
	return ed25519.PublicKey(append([]byte(nil), q.UserData...)), nil
}

// Session is an established verification session: a monitor key proven
// by VerifyBoot, against which domain reports are checked (tier two).
// The monitor draws that key once, when it boots, so a session holds for
// as long as the machine it proved keeps running: a verifier runs tier
// one per machine and tier two per report, each report under a nonce of
// its own. Nothing in a session changes after NewSession; goroutines may
// share one.
type Session struct {
	MonitorKey ed25519.PublicKey
}

// NewSession runs tier one and returns a session on success.
func (v *Verifier) NewSession(q *tpm.Quote, nonce []byte) (*Session, error) {
	key, err := v.VerifyBoot(q, nonce)
	if err != nil {
		return nil, err
	}
	return &Session{MonitorKey: key}, nil
}

// VerifyDomain checks tier two: the report is signed by the session's
// monitor and fresh for the nonce.
func (s *Session) VerifyDomain(r *core.Report, nonce []byte) error {
	if err := core.VerifyReport(r); err != nil {
		return err
	}
	if !bytes.Equal(r.MonitorKey, s.MonitorKey) {
		return ErrKeyMismatch
	}
	if !bytes.Equal(r.Nonce, nonce) {
		return ErrStaleNonce
	}
	return nil
}

// --- Policy predicates over verified reports -----------------------
//
// These run on attested resource enumerations; they are what makes
// reference counts actionable: "exclusive access to a resource (i.e., a
// reference count of 1) coupled with an obfuscating revocation policy
// guarantees integrity (while in use) and confidentiality" (§3.4).

// RequireSealed demands the domain be sealed (its resources frozen).
func RequireSealed(r *core.Report) error {
	if !r.Sealed {
		return fmt.Errorf("%w: domain %d is not sealed", ErrPolicy, r.Domain)
	}
	return nil
}

// RequireMeasurement demands the domain's identity match want — the
// offline-computed hash of the expected image (tyche-hash).
func RequireMeasurement(r *core.Report, want tpm.Digest) error {
	if r.Measurement != want {
		return fmt.Errorf("%w: measurement %v, want %v", ErrPolicy, r.Measurement, want)
	}
	return nil
}

// RequireExclusiveMemory demands every attested memory region be held
// exclusively (refcount 1), except regions overlapping the allowed
// list.
func RequireExclusiveMemory(r *core.Report, allowShared ...phys.Region) error {
	for _, rec := range r.Resources {
		if rec.Resource.Kind != cap.ResMemory || rec.RefCount <= 1 {
			continue
		}
		allowed := false
		for _, ok := range allowShared {
			if ok.ContainsRegion(rec.Resource.Mem) {
				allowed = true
				break
			}
		}
		if !allowed {
			return fmt.Errorf("%w: region %v has refcount %d", ErrPolicy, rec.Resource.Mem, rec.RefCount)
		}
	}
	return nil
}

// SharedRegions returns the attested memory regions with refcount > 1.
func SharedRegions(r *core.Report) []phys.Region {
	var out []phys.Region
	for _, rec := range r.Resources {
		if rec.Resource.Kind == cap.ResMemory && rec.RefCount > 1 {
			out = append(out, rec.Resource.Mem)
		}
	}
	return phys.NormalizeRegions(out)
}

// RequireSharedOnlyWith demands that every shared region of r also
// appears in (at least) one of the peers' enumerations, with refcount
// exactly 1+len matching peers... conservatively: refcount 2 and peer
// coverage. This is Figure 2's check that the SaaS application and GPU
// "share memory with the crypto engine" and nobody else.
func RequireSharedOnlyWith(r *core.Report, peers ...*core.Report) error {
	for _, rec := range r.Resources {
		if rec.Resource.Kind != cap.ResMemory || rec.RefCount <= 1 {
			continue
		}
		if rec.RefCount > 2 {
			return fmt.Errorf("%w: region %v shared %d ways", ErrPolicy, rec.Resource.Mem, rec.RefCount)
		}
		covered := false
		for _, p := range peers {
			for _, pr := range p.Resources {
				if pr.Resource.Kind == cap.ResMemory && pr.Resource.Mem.Overlaps(rec.Resource.Mem) {
					covered = true
					break
				}
			}
		}
		if !covered {
			return fmt.Errorf("%w: region %v is shared with an unknown domain", ErrPolicy, rec.Resource.Mem)
		}
	}
	return nil
}

// RequireExclusiveCore demands the domain hold at least one core
// exclusively (refcount 1) — the §4.1 side-channel posture.
func RequireExclusiveCore(r *core.Report) error {
	for _, rec := range r.Resources {
		if rec.Resource.Kind == cap.ResCore && rec.RefCount == 1 {
			return nil
		}
	}
	return fmt.Errorf("%w: domain %d holds no exclusive core", ErrPolicy, r.Domain)
}
