//go:build !tracebug

package hw

// ShootdownBugArmed reports whether the seeded shootdown mutation is
// compiled in (the tracebug build tag). The mutation test uses it to
// decide whether the trace checker must flag the run.
const ShootdownBugArmed = false

// shootdownSkipLast makes a round that targets the last core skip that
// core's flush and ack — a real stale-TLB bug the trace checker must
// catch. Constant-false in normal builds so the branch folds away.
const shootdownSkipLast = false
