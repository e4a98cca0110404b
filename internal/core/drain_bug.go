//go:build !drainbug

package core

// DrainBugArmed reports whether this binary carries the seeded
// coalescing bug (the drainbug build tag): the retire step runs a drain
// round's first revocation's flush cleanups OUTSIDE the round's
// shootdown accumulator, so extra unbatched shootdown rounds appear
// inside the KDrainBegin/KDrainEnd frame. Mirrors the tracebug /
// epochbug / scrubbug pattern: the mutation test proves the checker's
// cross-ring coalescing property rejects the bug, which is what
// licenses deferring revocation tails to the round.
const DrainBugArmed = false
