package tpm

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

func newTPM(t *testing.T) *TPM {
	t.Helper()
	tp, err := New(nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tp
}

func TestExtendSemantics(t *testing.T) {
	tp := newTPM(t)
	zero, err := tp.pcr(0)
	if err != nil {
		t.Fatal(err)
	}
	if zero != (Digest{}) {
		t.Fatal("PCRs must start zeroed")
	}
	d := Measure([]byte("monitor code"))
	if err := tp.Extend(PCRMonitor, d, "monitor"); err != nil {
		t.Fatal(err)
	}
	got, _ := tp.pcr(PCRMonitor)
	h := sha256.New()
	h.Write(make([]byte, DigestSize))
	h.Write(d[:])
	var want Digest
	copy(want[:], h.Sum(nil))
	if got != want {
		t.Fatalf("extend result mismatch: %v vs %v", got, want)
	}
	// Extends are order-sensitive (tamper evidence).
	tp2 := newTPM(t)
	d2 := Measure([]byte("other"))
	tp.Extend(PCRMonitor, d2, "b")
	tp2.Extend(PCRMonitor, d2, "b")
	tp2.Extend(PCRMonitor, d, "a")
	a, _ := tp.pcr(PCRMonitor)
	b, _ := tp2.pcr(PCRMonitor)
	if a == b {
		t.Fatal("different extend orders must yield different PCRs")
	}
}

func TestExtendOutOfRange(t *testing.T) {
	tp := newTPM(t)
	if err := tp.Extend(NumPCRs, Digest{}, "x"); err == nil {
		t.Fatal("expected out-of-range extend to fail")
	}
	if err := tp.Extend(-1, Digest{}, "x"); err == nil {
		t.Fatal("expected negative index to fail")
	}
	if _, err := tp.pcr(NumPCRs); err == nil {
		t.Fatal("expected out-of-range read to fail")
	}
}

func TestQuoteVerify(t *testing.T) {
	tp := newTPM(t)
	tp.Extend(PCRMonitor, Measure([]byte("tyche")), "monitor")
	nonce := []byte("fresh-nonce-123")
	user := []byte("monitor-attestation-key")
	q, err := tp.MakeQuote(nonce, []int{PCRFirmware, PCRMonitor}, user)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyQuote(tp.EndorsementKey(), q); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !bytes.Equal(q.Nonce, nonce) {
		t.Fatal("nonce not preserved")
	}
	v, ok := QuotedPCR(q, PCRMonitor)
	if !ok {
		t.Fatal("PCR 17 missing from quote")
	}
	live, _ := tp.pcr(PCRMonitor)
	if v != live {
		t.Fatal("quoted PCR differs from live PCR")
	}
	if _, ok := QuotedPCR(q, 5); ok {
		t.Fatal("unselected PCR should be absent")
	}
}

func TestQuoteTamperDetected(t *testing.T) {
	tp := newTPM(t)
	tp.Extend(PCRMonitor, Measure([]byte("tyche")), "monitor")
	q, err := tp.MakeQuote([]byte("n"), []int{PCRMonitor}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ek := tp.EndorsementKey()

	tamper := *q
	tamper.PCRValue = append([]Digest(nil), q.PCRValue...)
	tamper.PCRValue[0] = Measure([]byte("evil monitor"))
	if err := VerifyQuote(ek, &tamper); err == nil {
		t.Fatal("tampered PCR value must fail verification")
	}

	replay := *q
	replay.Nonce = []byte("stale")
	if err := VerifyQuote(ek, &replay); err == nil {
		t.Fatal("modified nonce must fail verification")
	}

	wrongKey := newTPM(t)
	if err := VerifyQuote(wrongKey.EndorsementKey(), q); err == nil {
		t.Fatal("quote must not verify under a different EK")
	}

	if err := VerifyQuote(ek, nil); err == nil {
		t.Fatal("nil quote must fail")
	}
	bad := *q
	bad.PCRIndex = bad.PCRIndex[:0]
	if err := VerifyQuote(ek, &bad); err == nil {
		t.Fatal("malformed quote must fail")
	}
}

func TestQuoteOfInvalidPCR(t *testing.T) {
	tp := newTPM(t)
	if _, err := tp.MakeQuote(nil, []int{99}, nil); err == nil {
		t.Fatal("expected quote of invalid PCR to fail")
	}
}

func TestEventLogReplay(t *testing.T) {
	tp := newTPM(t)
	tp.Extend(PCRFirmware, Measure([]byte("bios")), "bios")
	tp.Extend(PCRMonitor, Measure([]byte("tyche")), "tyche")
	tp.Extend(PCRMonitor, Measure([]byte("config")), "config")
	if !tp.ReplayLog() {
		t.Fatal("honest log must replay to live PCRs")
	}
	log := tp.EventLog()
	if len(log) != 3 || log[1].Desc != "tyche" {
		t.Fatalf("log = %+v", log)
	}
	// EventLog returns a copy: mutating it must not affect replay.
	log[0].Digest = Measure([]byte("evil"))
	if !tp.ReplayLog() {
		t.Fatal("external log mutation leaked into TPM state")
	}
}

func TestEndorsementKeyIsCopy(t *testing.T) {
	tp := newTPM(t)
	ek := tp.EndorsementKey()
	ek[0] ^= 0xff
	q, err := tp.MakeQuote([]byte("n"), []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyQuote(tp.EndorsementKey(), q); err != nil {
		t.Fatal("mutating returned key must not corrupt TPM state")
	}
}
