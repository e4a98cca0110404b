// Package cap implements Tyche's platform-independent capability model
// (§4.1): "a capability model for which grant, share, and revoke
// operations modify a tree structure that represents a capability's
// lineage, maintains per-resource reference counts, and facilitates
// cascading revocations, even in the presence of circular sharing."
//
// The package is deliberately independent of the hardware substrate: it
// validates operations and records the cleanups revocation must perform;
// the monitor's backend translates the results into hardware
// configuration (EPT/PMP/IOMMU updates, zeroing, flushes). This mirrors
// the paper's split between the capability model ("written in safe Rust,
// meant to be formally verified") and the platform-specific backend.
//
// A Space is used by one goroutine at a time — its monitor's — and holds
// no lock.
package cap

import "strings"

// Rights is the access-rights bitmask attached to a capability. Rights
// only ever attenuate along the lineage tree: a derived capability's
// rights are a subset of its parent's.
type Rights uint16

// Resource access rights.
const (
	// RightRead permits reading the memory resource.
	RightRead Rights = 1 << iota
	// RightWrite permits writing the memory resource.
	RightWrite
	// RightExec permits instruction fetch from the memory resource.
	RightExec
	// RightRun permits scheduling the owning domain on the core resource
	// (domain transitions target cores the domain holds RightRun on).
	RightRun
	// RightUse permits driving the device resource.
	RightUse
	// RightDMA permits programming the device resource's DMA engine.
	RightDMA
	// RightShare permits deriving shared child capabilities.
	RightShare
	// RightGrant permits granting (exclusive, revocable transfer).
	RightGrant
)

// Common combinations.
const (
	RightsNone Rights = 0
	MemRW             = RightRead | RightWrite
	MemRX             = RightRead | RightExec
	MemRWX            = RightRead | RightWrite | RightExec
	MemFull           = MemRWX | RightShare | RightGrant
	CoreFull          = RightRun | RightShare | RightGrant
	DeviceFull        = RightUse | RightDMA | RightShare | RightGrant
)

// Subset reports whether every right in r is present in of.
func (r Rights) Subset(of Rights) bool { return r&^of == 0 }

// Has reports whether r includes every bit of want.
func (r Rights) Has(want Rights) bool { return r&want == want }

var rightNames = []struct {
	bit  Rights
	name string
}{
	{RightRead, "read"}, {RightWrite, "write"}, {RightExec, "exec"},
	{RightRun, "run"}, {RightUse, "use"}, {RightDMA, "dma"},
	{RightShare, "share"}, {RightGrant, "grant"},
}

func (r Rights) String() string {
	if r == 0 {
		return "none"
	}
	var parts []string
	for _, rn := range rightNames {
		if r&rn.bit != 0 {
			parts = append(parts, rn.name)
		}
	}
	return strings.Join(parts, "+")
}

// Cleanup is the revocation-policy bitmask: the "clean-up" operations
// guaranteed to execute when the capability is revoked (§3.2: "e.g.,
// zeroing-out memory or flushing CPU cache, that is guaranteed to
// execute upon revocation").
type Cleanup uint8

// Cleanup operations.
const (
	// CleanZero zeroes the revoked memory region before the resource
	// returns to the granter, guaranteeing confidentiality of the
	// revoked domain's data.
	CleanZero Cleanup = 1 << iota
	// CleanFlushCache flushes data-cache micro-architectural state,
	// closing cache side channels across the revocation.
	CleanFlushCache
	// CleanFlushTLB invalidates cached translations so no stale TLB
	// entry can outlive the revocation (integrity of enforcement).
	CleanFlushTLB

	// CleanNone performs no cleanup.
	CleanNone Cleanup = 0
	// CleanObfuscate is the paper's "obfuscating revocation policy":
	// together with refcount 1 it yields integrity + confidentiality.
	CleanObfuscate = CleanZero | CleanFlushCache | CleanFlushTLB
)

func (c Cleanup) String() string {
	if c == 0 {
		return "none"
	}
	var parts []string
	if c&CleanZero != 0 {
		parts = append(parts, "zero")
	}
	if c&CleanFlushCache != 0 {
		parts = append(parts, "flush-cache")
	}
	if c&CleanFlushTLB != 0 {
		parts = append(parts, "flush-tlb")
	}
	return strings.Join(parts, "+")
}
