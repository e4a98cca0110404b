//go:build !ackbug

package hw

// AckBugArmed reports whether this binary carries the seeded
// lost-acknowledgement bug (the ackbug build tag): the first
// cross-core TLB shootdown that targets core 0 drops its
// acknowledgement — the flush
// itself still runs, so only the completion protocol is broken. The
// mutation test proves the trace checker, online and replayed, must
// flag the operation completing with a missing ack (shootdown-
// acknowledgement property), distinguishing a reporting bug from
// tracebug's genuinely-stale-TLB bug.
const AckBugArmed = false

// ackDropOne makes the next shootdown round that targets core 0
// swallow its ack.
// Constant-false in normal builds so the branch folds away.
const ackDropOne = false
