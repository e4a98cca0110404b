// Package tpm models an industry-standard TPM: the hardware root of
// trust the paper's judiciary power is anchored in (§3.4: "a hardware
// root of trust, such as an industry-standard TPM, measures the
// machine's boot-process and provides a signed remotely-verifiable
// attestation that the machine is under the complete control of a
// specific monitor implementation").
//
// The model implements the parts the two-tier attestation protocol
// needs: a bank of SHA-256 PCRs with extend-only semantics, an event
// log, an endorsement key, and signed quotes over selected PCRs. All
// cryptography is real (stdlib SHA-256 and Ed25519); only the silicon is
// simulated.
package tpm

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// NumPCRs is the number of platform configuration registers, matching
// TPM 2.0's standard allocation.
const NumPCRs = 24

// Well-known PCR assignments used by the simulated platform.
const (
	// PCRFirmware records the platform firmware measurement.
	PCRFirmware = 0
	// PCRMonitor records the isolation monitor's code+config measurement
	// (the DRTM-style launch measurement TXT would produce).
	PCRMonitor = 17
)

// DigestSize is the size of a PCR digest (SHA-256).
const DigestSize = sha256.Size

// Digest is a SHA-256 measurement value.
type Digest [DigestSize]byte

func (d Digest) String() string { return fmt.Sprintf("%x", d[:8]) }

// Measure hashes arbitrary content into a Digest.
func Measure(data []byte) Digest { return sha256.Sum256(data) }

// Event is one entry in the TPM's measured-boot event log.
type Event struct {
	PCR    int
	Digest Digest
	Desc   string
}

// TPM is a simulated trusted platform module.
type TPM struct {
	pcrs [NumPCRs]Digest
	log  []Event

	ek  ed25519.PrivateKey
	ekp ed25519.PublicKey

	// quoteHook, when set, is consulted at the top of MakeQuote; a
	// non-nil error aborts the quote. Fault injection uses it to model
	// transient root-of-trust failures.
	quoteHook func() error
}

// SetQuoteHook installs (or, with nil, removes) a hook consulted before
// every MakeQuote.
func (t *TPM) SetQuoteHook(h func() error) { t.quoteHook = h }

// checkQuoteHook runs the installed hook, if any.
func (t *TPM) checkQuoteHook() error {
	if t.quoteHook == nil {
		return nil
	}
	return t.quoteHook()
}

// New manufactures a TPM with a fresh endorsement key drawn from rng
// (nil selects crypto/rand).
func New(rng io.Reader) (*TPM, error) {
	if rng == nil {
		rng = rand.Reader
	}
	pub, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("tpm: generating endorsement key: %w", err)
	}
	return &TPM{ek: priv, ekp: pub}, nil
}

// EndorsementKey returns the public endorsement key. In a real
// deployment this is certified by the manufacturer; verifiers treat it
// as the trust anchor.
func (t *TPM) EndorsementKey() ed25519.PublicKey {
	out := make(ed25519.PublicKey, len(t.ekp))
	copy(out, t.ekp)
	return out
}

// Extend folds digest into PCR idx: pcr = SHA-256(pcr || digest). The
// extend-only semantics are what make the log tamper-evident.
func (t *TPM) Extend(idx int, digest Digest, desc string) error {
	if idx < 0 || idx >= NumPCRs {
		return fmt.Errorf("tpm: PCR index %d out of range", idx)
	}
	h := sha256.New()
	h.Write(t.pcrs[idx][:])
	h.Write(digest[:])
	copy(t.pcrs[idx][:], h.Sum(nil))
	t.log = append(t.log, Event{PCR: idx, Digest: digest, Desc: desc})
	return nil
}

// pcr returns the current value of PCR idx.
func (t *TPM) pcr(idx int) (Digest, error) {
	if idx < 0 || idx >= NumPCRs {
		return Digest{}, fmt.Errorf("tpm: PCR index %d out of range", idx)
	}
	return t.pcrs[idx], nil
}

// Quote is a signed attestation of selected PCR values bound to a
// caller-chosen nonce (freshness) and arbitrary caller data (used to
// bind the monitor's attestation key to the measured boot).
type Quote struct {
	Nonce    []byte
	PCRIndex []int
	PCRValue []Digest
	UserData []byte
	Sig      []byte
}

// quoteMessage builds the canonical byte string that is signed.
func quoteMessage(nonce []byte, idx []int, vals []Digest, userData []byte) []byte {
	var b bytes.Buffer
	b.WriteString("tpm-quote-v1")
	writeBytes(&b, nonce)
	binary.Write(&b, binary.LittleEndian, uint32(len(idx)))
	for i, ix := range idx {
		binary.Write(&b, binary.LittleEndian, uint32(ix))
		b.Write(vals[i][:])
	}
	writeBytes(&b, userData)
	return b.Bytes()
}

func writeBytes(b *bytes.Buffer, p []byte) {
	binary.Write(b, binary.LittleEndian, uint32(len(p)))
	b.Write(p)
}

// MakeQuote signs the current values of the selected PCRs.
func (t *TPM) MakeQuote(nonce []byte, pcrs []int, userData []byte) (*Quote, error) {
	idx := make([]int, len(pcrs))
	if err := t.checkQuoteHook(); err != nil {
		return nil, fmt.Errorf("tpm: quote: %w", err)
	}
	copy(idx, pcrs)
	vals := make([]Digest, len(idx))
	for i, ix := range idx {
		v, err := t.pcr(ix)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	msg := quoteMessage(nonce, idx, vals, userData)
	q := &Quote{
		Nonce:    append([]byte(nil), nonce...),
		PCRIndex: idx,
		PCRValue: vals,
		UserData: append([]byte(nil), userData...),
		Sig:      ed25519.Sign(t.ek, msg),
	}
	return q, nil
}

// ErrBadQuote reports a quote that fails signature verification.
var ErrBadQuote = errors.New("tpm: quote signature invalid")

// VerifyQuote checks q against the endorsement public key ek.
func VerifyQuote(ek ed25519.PublicKey, q *Quote) error {
	if q == nil {
		return errors.New("tpm: nil quote")
	}
	if len(q.PCRIndex) != len(q.PCRValue) {
		return errors.New("tpm: malformed quote: index/value length mismatch")
	}
	msg := quoteMessage(q.Nonce, q.PCRIndex, q.PCRValue, q.UserData)
	if !ed25519.Verify(ek, msg, q.Sig) {
		return ErrBadQuote
	}
	return nil
}

// QuotedPCR extracts PCR idx's value from a (verified) quote.
func QuotedPCR(q *Quote, idx int) (Digest, bool) {
	for i, ix := range q.PCRIndex {
		if ix == idx {
			return q.PCRValue[i], true
		}
	}
	return Digest{}, false
}
