//go:build tracebug

package hw

// Seeded mutation build: a TLB shootdown that targets the last core
// silently skips it, leaving it with stale translations and one missing
// acknowledgement.
// This exists to prove the trace invariant checker is not vacuous — see
// TestShootdownMutationOracle. Never ship with this tag.

// ShootdownBugArmed reports whether the seeded shootdown mutation is
// compiled in.
const ShootdownBugArmed = true

const shootdownSkipLast = true
