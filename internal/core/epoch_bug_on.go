//go:build epochbug

package core

// EpochBugArmed: this binary was built with the epochbug tag — the
// epoch engine's synchronize returns without waiting for readers. A
// deliberately broken build: the mutation test proves the trace checker
// catches the premature reclaim (dead-domain silence violated by a
// reader that outlives the kill).
const EpochBugArmed = true
