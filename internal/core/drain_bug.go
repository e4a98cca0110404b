//go:build !drainbug

package core

// DrainBugArmed reports whether this binary carries the seeded
// coalescing bug (the drainbug build tag): the retire step flushes the
// shootdowns of its first revocation on their own, so a drain round
// that retires more runs a second shootdown round inside its
// KDrainBegin/KDrainEnd frame. Mirrors the tracebug / scrubbug pattern:
// the mutation test proves the checker's one-round-per-frame property
// rejects the bug, which is what licenses deferring revocation tails to
// the round.
const DrainBugArmed = false
