package tpm

import "crypto/sha256"

// The verifier's side of measured boot, which only the tests take: the
// event log and its replay against the live PCR bank.

// EventLog returns a copy of the measured-boot event log.
func (t *TPM) EventLog() []Event {
	out := make([]Event, len(t.log))
	copy(out, t.log)
	return out
}

// ReplayLog recomputes the PCR values implied by the event log and
// reports whether they match the live PCR bank — the standard
// log-vs-PCR consistency check a verifier performs.
func (t *TPM) ReplayLog() bool {
	var replay [NumPCRs]Digest
	for _, e := range t.log {
		h := sha256.New()
		h.Write(replay[e.PCR][:])
		h.Write(e.Digest[:])
		copy(replay[e.PCR][:], h.Sum(nil))
	}
	return replay == t.pcrs
}
