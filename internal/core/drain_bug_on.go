//go:build drainbug

package core

// DrainBugArmed: this binary was built with the drainbug tag — the
// retire step flushes its first revocation's shootdowns on their own,
// so a drain round that retires more runs a second shootdown round
// inside its frame. A deliberately broken build: the mutation test
// proves the trace checker, online and replayed, flags the property-5
// violation.
const DrainBugArmed = true
