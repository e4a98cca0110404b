package cap

import "slices"

// Revocation, in the two phases the monitor runs with its grace period
// and scrub in between. It is the only revocation there is: Revoke and
// RevokeOwner (space.go) are the same two phases run back to back.
//
//   - Detach / DetachOwner — the *publish*: the subtree's nodes leave
//     the index (the owners lose access and every query stops seeing
//     them), but the lineage links stay in place. In particular a
//     granted child keeps hanging off its parent, so the parent's
//     effective regions still exclude the granted range: the grant
//     suspension persists and the parent cannot re-delegate the region
//     while the old owner's copy is being scrubbed.
//   - Release — after the grace period and the scrub: unlink the
//     detached tops from their live parents, restoring the parents'
//     effective access. Nothing references the subtrees after that (no
//     *node leaves Space.mu), so the collector takes them. The caller
//     resynchronises the affected owners' hardware immediately after,
//     so Release itself does not bump the generation — the interim
//     staleness is in the safe (more restrictive) direction. A Detached
//     that is never released (its cleanups failed) keeps its parents
//     suspended: fail closed.
//
// Both hold Space.mu exclusively and are short; the monitor serialises
// them per destructive operation with its own revMu.

// Detached holds a detached-but-not-yet-released set of capability
// subtrees: the output of Detach/DetachOwner, consumed by Release.
// actions holds one entry per detached node.
type Detached struct {
	tops    []*node // nil once released
	actions []CleanupAction
	parents []OwnerID
}

// Actions returns the cleanup actions for the detached subtrees in
// execution order (children first), which is what Revoke returns.
func (d *Detached) Actions() []CleanupAction {
	if d == nil {
		return nil
	}
	return d.actions
}

// NumNodes returns how many capability records the detach took out of
// the index.
func (d *Detached) NumNodes() int { return len(d.Actions()) }

// ParentOwners returns the distinct owners of the surviving parents the
// detached tops hang off — the grantors whose suspended access Release
// restores. Their hardware must be resynchronised after Release just
// like the detached owners': the capability space says they have the
// granted-back regions again, but their filters were programmed while
// the suspension was in force. Captured, sorted, at detach time; like
// Actions, the slice is the record's own and read-only to the caller.
func (d *Detached) ParentOwners() []OwnerID {
	if d == nil {
		return nil
	}
	return d.parents
}

// detachSubtree walks children-first, removing every node from the
// index and marking it detached, without touching any lineage link.
// Caller holds mu exclusively.
func (s *Space) detachSubtree(n *node, det *Detached) {
	for _, c := range n.children {
		if c.detached {
			continue
		}
		s.detachSubtree(c, det)
	}
	n.detached = true
	s.remove(n)
	det.actions = append(det.actions, CleanupAction{
		Node: n.id, Owner: n.owner, Resource: n.res, Cleanup: n.cleanup,
	})
}

// Detach is the publish step of a revocation: the capability and its
// entire derivation subtree vanish from the index (one generation bump),
// but stay linked to the lineage forest so grant suspensions persist
// until Release.
func (s *Space) Detach(id NodeID) (*Detached, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.get(id)
	if err != nil {
		return nil, err
	}
	det := &Detached{}
	s.detachSubtree(n, det)
	det.tops = append(det.tops, n)
	if n.parent != nil && !n.parent.detached {
		det.parents = append(det.parents, n.parent.owner)
	}
	s.limbo.Add(int64(len(det.actions)))
	s.mutate()
	return det, nil
}

// DetachOwner is the publish step of an owner's teardown: every
// capability owned by owner (and everything derived from those) leaves
// the index; the owner's seal flag is cleared. Used when a domain is
// killed.
func (s *Space) DetachOwner(owner OwnerID) *Detached {
	s.mu.Lock()
	defer s.mu.Unlock()
	det := &Detached{}
	for _, n := range s.ownerTops(owner) {
		s.detachSubtree(n, det)
		det.tops = append(det.tops, n)
		if n.parent != nil && !n.parent.detached {
			det.parents = append(det.parents, n.parent.owner)
		}
	}
	slices.Sort(det.parents)
	det.parents = slices.Compact(det.parents)
	if len(det.actions) > 0 {
		s.mutate()
	}
	delete(s.sealed, owner)
	s.limbo.Add(int64(len(det.actions)))
	return det
}

// Release unlinks the detached tops from their surviving parents,
// restoring the parents' effective access to anything the detached
// subtrees had been granted, and with that drops the last reference to
// the subtrees. Called after the grace period and after the revoked
// state has been scrubbed; a second call is a no-op. Release does not
// bump the generation: it only widens access back toward the parents,
// and the monitor resynchronises the affected owners' hardware
// immediately after, so any interim staleness is in the restrictive
// direction.
func (s *Space) Release(det *Detached) {
	if det == nil || det.tops == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range det.tops {
		if n.parent != nil && !n.parent.detached {
			n.parent.children = removeChild(n.parent.children, n)
		}
	}
	s.limbo.Add(-int64(len(det.actions)))
	det.tops = nil
}

// Reclaim does nothing: Release frees everything a revocation holds.
// Kept for benchmark/ until ROADMAP's benchmark queue (iv).
func (s *Space) Reclaim(*Detached) {}

// LimboNodes returns how many capability records are detached and not
// yet released: 0 whenever no revocation is in flight. Kept for
// benchmark/ until ROADMAP's benchmark queue (iv).
func (s *Space) LimboNodes() int { return int(s.limbo.Load()) }
