//go:build ackbug

package hw

// Seeded mutation build: the first cross-core TLB shootdown this
// machine performs that targets core 0 drops core 0's acknowledgement
// while still running the flush — the shootdown protocol loses a completion it was owed.
// This exists to prove the trace checkers' shootdown-acknowledgement
// property is not vacuous — see TestAckMutationOracle. Never ship
// with this tag.

// AckBugArmed reports whether the seeded lost-ack mutation is
// compiled in.
const AckBugArmed = true

const ackDropOne = true
