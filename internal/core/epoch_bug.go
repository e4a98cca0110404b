//go:build !epochbug

package core

// EpochBugArmed reports whether this binary carries the seeded
// premature-reclaim bug (the epochbug build tag): synchronize skips its
// grace period, so a destructive operation can reclaim state while a
// reader still uses it. Mirrors the hw tracebug pattern: the mutation
// test proves the trace checker rejects the bug, which is what licenses
// shipping the epoch scheme.
const EpochBugArmed = false
