package core

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/codec"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
	"github.com/tyche-sim/tyche/internal/trace"
)

// This file implements the monitor half of the two-tier attestation
// protocol (§3.4, following TrustVisor): tier one binds the monitor's
// attestation key to the TPM-measured boot (BootQuote); tier two has
// the now-trusted monitor sign per-domain reports enumerating physical
// resources, reference counts, and measurements.

// MeasuredRegion pairs a region with its measured content.
type MeasuredRegion struct {
	Region  phys.Region
	Content []byte
}

// ComputeMeasurement derives a domain measurement from its entry point
// and measured initial memory. The encoding is canonical so that the
// offline hashing tool (tyche-hash, §4.2: "generating a binary's hash
// offline to be compared with the attestation provided by Tyche")
// reproduces it exactly.
//
// The encoding streams into the hash: the codec writes each region's
// fixed-width header into a small buffer and the content goes to the
// hash as is, so no copy of the measured memory is built.
func ComputeMeasurement(entry phys.Addr, regions []MeasuredRegion) tpm.Digest {
	mm := newMeasurer(entry, len(regions))
	for _, r := range regions {
		mm.region(r.Region, uint64(len(r.Content))).Write(r.Content)
	}
	return mm.sum()
}

// measurer is ComputeMeasurement's encoding as a stream: the header,
// then per region its bounds and length followed by its content, which
// the caller writes into the hash region returns — from a slice, or
// from physical memory (Monitor.seal).
type measurer struct {
	h hash.Hash
	w codec.Writer
}

func newMeasurer(entry phys.Addr, regions int) *measurer {
	mm := &measurer{h: sha256.New(), w: codec.Writer{Buf: make([]byte, 0, 64)}}
	mm.w.Raw([]byte("tyche-domain-measurement-v1"))
	mm.w.U64(uint64(entry))
	mm.w.U64(uint64(regions))
	return mm
}

// region writes r's header for size content bytes and returns the hash
// the content goes into next.
func (mm *measurer) region(r phys.Region, size uint64) io.Writer {
	mm.w.U64(uint64(r.Start))
	mm.w.U64(uint64(r.End))
	mm.w.U64(size) // Blob's length prefix; its bytes follow
	mm.h.Write(mm.w.Buf)
	mm.w.Buf = mm.w.Buf[:0]
	return mm.h
}

func (mm *measurer) sum() tpm.Digest {
	mm.h.Write(mm.w.Buf)
	var d tpm.Digest
	mm.h.Sum(d[:0])
	return d
}

// ResourceRecord is one entry of a domain's attested resource
// enumeration.
type ResourceRecord struct {
	Resource cap.Resource
	Rights   cap.Rights
	// RefCount is the system-wide reference count: the number of
	// distinct domains with access. 1 means exclusive; 2 means shared
	// with exactly one other domain (§3.1).
	RefCount int
}

// Report is a signed domain attestation (tier two).
type Report struct {
	Domain      DomainID
	Name        string
	Nonce       []byte
	Sealed      bool
	Entry       phys.Addr
	Measurement tpm.Digest
	// ReportData is the domain-chosen digest bound into the report
	// (zero if the domain never set one).
	ReportData tpm.Digest
	Resources  []ResourceRecord
	// MonitorKey identifies the signing monitor (bound to the TPM via
	// BootQuote).
	MonitorKey ed25519.PublicKey
	Sig        []byte
}

// reportMessage builds the canonical byte string that is signed.
func reportMessage(r *Report) []byte {
	var w codec.Writer
	w.Raw([]byte("tyche-domain-report-v1"))
	w.U64(uint64(r.Domain))
	w.Str(r.Name)
	w.Blob(r.Nonce)
	w.Bool(r.Sealed)
	w.U64(uint64(r.Entry))
	w.Raw(r.Measurement[:])
	w.Raw(r.ReportData[:])
	w.U64(uint64(len(r.Resources)))
	for _, rec := range r.Resources {
		w.U32(uint32(rec.Resource.Kind))
		w.U64(uint64(rec.Resource.Mem.Start))
		w.U64(uint64(rec.Resource.Mem.End))
		w.U64(uint64(rec.Resource.Core))
		w.U64(uint64(rec.Resource.Device))
		w.U32(uint32(rec.Rights))
		w.U64(uint64(rec.RefCount))
	}
	w.Blob(r.MonitorKey)
	return w.Buf
}

// Attest produces a signed report for the domain, fresh for the given
// nonce. Reports are not secret: any live domain (or the embedding
// system on behalf of a remote verifier) may request one.
func (m *Monitor) Attest(id DomainID, nonce []byte) (*Report, error) {
	d, err := m.liveDomain(id)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Domain:      id,
		Name:        d.name,
		Nonce:       append([]byte(nil), nonce...),
		Sealed:      d.State() == StateSealed,
		Entry:       d.entry,
		Measurement: d.measurement,
		ReportData:  d.reportData,
		Resources:   m.enumerate(cap.OwnerID(id)),
		MonitorKey:  m.AttestationKey(),
	}
	r.Sig = ed25519.Sign(m.attPriv, reportMessage(r))
	m.stats.Attests++
	m.emit(trace.KAttest, d.id, 0, 0, 0, 0)
	return r, nil
}

// ErrBadReport reports a report that fails signature verification.
var ErrBadReport = errors.New("core: report signature invalid")

// VerifyReport checks a report's signature under the monitor key it
// names. Callers must separately establish trust in that key via
// VerifyBootQuote — this function only checks integrity.
func VerifyReport(r *Report) error {
	if r == nil {
		return errors.New("core: nil report")
	}
	if len(r.MonitorKey) != ed25519.PublicKeySize {
		return fmt.Errorf("core: malformed monitor key (%d bytes)", len(r.MonitorKey))
	}
	if !ed25519.Verify(r.MonitorKey, reportMessage(r), r.Sig) {
		return ErrBadReport
	}
	return nil
}

// BootQuote produces tier-one evidence: a TPM quote over the firmware
// and monitor PCRs, with the monitor's attestation public key as the
// quoted user data. A verifier checks the quote against the TPM's
// endorsement key and the PCR value against the expected monitor
// measurement, then trusts reports signed by the bound key.
func (m *Monitor) BootQuote(nonce []byte) (*tpm.Quote, error) {
	return m.rot.MakeQuote(nonce, []int{tpm.PCRFirmware, tpm.PCRMonitor}, m.attPub)
}

// ExpectedMonitorPCR computes the PCR-17 value a verifier expects for a
// monitor with the given identity blob: one extend of the identity
// measurement into a zero PCR.
func ExpectedMonitorPCR(identity []byte) tpm.Digest {
	meas := tpm.Measure(identity)
	h := sha256.New()
	h.Write(make([]byte, tpm.DigestSize))
	h.Write(meas[:])
	var d tpm.Digest
	copy(d[:], h.Sum(nil))
	return d
}
