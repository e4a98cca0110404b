//go:build !rangebug

package hw

// RangeBugArmed reports whether this binary carries the seeded
// targeting bug (the rangebug build tag): every shootdown round that
// targets any core leaves out the highest core resident for the
// round's domains — it neither flushes nor is named in the round — so
// that core keeps translations of memory its domain lost. The mutation
// test proves the trace checker, online and replayed, flags the core
// left out, and the stale-translation oracle finds what it kept.
const RangeBugArmed = false

// rangeSkipOne makes every round drop one resident core from its
// targets. Constant-false in normal builds so the branch folds away.
const rangeSkipOne = false
