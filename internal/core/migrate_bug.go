//go:build !migratebug

package core

// MigrateBugArmed reports whether this binary carries the seeded
// migration-departure bug (the migratebug build tag): DepartKill — the
// source-side crypto-erase of an attested live migration — announces
// its scrub plan but elides the zeroing, the TLB shootdowns, and the
// encryption-key drop, so a "departed" confidential workload leaves a
// readable plaintext copy behind on the source machine. The mutation
// test proves the trace checker, online and replayed, flags the
// unscrubbed regions (scrub-before-kill property), which is what
// licenses trusting the migration departure path.
const MigrateBugArmed = false

// departEraseElided makes destroyReclaim skip the departure-side
// erase. Constant-false in normal builds so the branch folds away.
const departEraseElided = false
