//go:build !scrubbug

package core

// ScrubBugArmed reports whether this binary carries the seeded
// scrub-skip bug (the scrubbug build tag): destroyReclaim plans every
// exclusive region for scrubbing but silently skips the first one's
// zero+shootdown, so a kill completes with reusable secrets still in
// memory. The mutation test proves the trace checker, online and
// replayed, flags the unscrubbed region (scrub-before-kill property),
// which is what licenses trusting the reclaim path.
const ScrubBugArmed = false

// scrubSkipFirst makes destroyReclaim skip the first planned region's
// scrub. Constant-false in normal builds so the branch folds away.
const scrubSkipFirst = false
