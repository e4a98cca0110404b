package core

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/phys"
)

// TestSignedEncodingsGolden pins the two signed encodings byte for
// byte: the report message every signature covers and the measurement
// tyche-hash reproduces offline. A change here invalidates every report
// and measurement ever issued.
func TestSignedEncodingsGolden(t *testing.T) {
	key := make(ed25519.PublicKey, ed25519.PublicKeySize)
	for i := range key {
		key[i] = byte(i * 7)
	}
	r := &Report{
		Domain: 3, Name: "tenant", Nonce: []byte("nonce-42"), Sealed: true, Entry: 0x40000,
		Resources: []ResourceRecord{
			{Resource: cap.MemResource(phys.MakeRegion(0x40000, 2*pg)), Rights: cap.MemRWX, RefCount: 1},
			{Resource: cap.CoreResource(1), Rights: cap.RightRun, RefCount: 2},
			{Resource: cap.DeviceResource(-1), Rights: cap.RightShare, RefCount: 3},
		},
		MonitorKey: key,
	}
	for i := range r.Measurement {
		r.Measurement[i] = byte(i)
		r.ReportData[i] = byte(255 - i)
	}
	msg := reportMessage(r)
	sum := sha256.Sum256(msg)
	if got, want := hex.EncodeToString(sum[:]), "74cef4df8571a7bf03cd943fad7201da61332aa08c8b03efc25f9b45829de77a"; len(msg) != 325 || got != want {
		t.Errorf("report message: %d bytes, sha256 %s; want 325 bytes, %s", len(msg), got, want)
	}

	content := make([]byte, 3000)
	for i := range content {
		content[i] = byte(i * 13)
	}
	for _, c := range []struct {
		entry   phys.Addr
		regions []MeasuredRegion
		want    string
	}{
		{0x40010, []MeasuredRegion{
			{Region: phys.MakeRegion(0x40000, pg), Content: content},
			{Region: phys.MakeRegion(0x50000, 2*pg)},
		}, "123013dbd690cdecc05219834727d63d0711bd8da9f6923d119f415573752c8b"},
		{0, nil, "e99bc03031448f2fb5fd3819ee00e6952c51c4b64b2229dc5878f5d8d8217136"},
	} {
		m := ComputeMeasurement(c.entry, c.regions)
		if got := hex.EncodeToString(m[:]); got != c.want {
			t.Errorf("measurement at entry %#x = %s, want %s", c.entry, got, c.want)
		}
	}
}
