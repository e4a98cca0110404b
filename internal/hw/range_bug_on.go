//go:build rangebug

package hw

// Seeded mutation build: every shootdown round leaves out the highest
// core resident for the round's domains, which keeps its stale
// translations. This exists to prove the trace checkers' targeting
// rule and the stale-translation oracle are not vacuous — see
// TestRangeMutationOracle. Never ship with this tag.

// RangeBugArmed reports whether the seeded targeting mutation is
// compiled in.
const RangeBugArmed = true

const rangeSkipOne = true
