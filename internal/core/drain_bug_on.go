//go:build drainbug

package core

// DrainBugArmed: this binary was built with the drainbug tag — the
// retire step skips a drain round's coalescing for its first
// revocation, whose flush cleanups then retire as immediate
// unbatched shootdown rounds inside the drain frame. A deliberately
// broken build: the mutation test proves the trace checker, online
// and replayed, flags the property-6 violation.
const DrainBugArmed = true
