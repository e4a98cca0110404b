package cap

import "slices"

// Revocation, in the two phases the monitor runs with its scrub in
// between. It is the only revocation there is: Revoke
// (space.go) is the same two phases run back to back.
//
//   - Detach / DetachOwner — the *publish*: the subtree's nodes leave
//     the index (the owners lose access and every query stops seeing
//     them), but the lineage links stay in place. In particular a
//     granted child keeps hanging off its parent, so the parent's
//     effective regions still exclude the granted range: the grant
//     suspension persists and the parent cannot re-delegate the region
//     while the old owner's copy is being scrubbed.
//   - Release — after the scrub: unlink the detached tops from their
//     live parents, restoring the parents' effective access. Nothing
//     references the subtrees after that (no *node leaves the package,
//     and the record drops its tops), so the collector takes them. The
//     caller resynchronises the affected owners' hardware immediately
//     after, so Release itself does not bump the generation — the
//     interim staleness is in the safe (more restrictive) direction. A
//     Detached that is never released (its cleanups failed) keeps its
//     parents suspended: fail closed.
//   - Reclaim — once the caller has read the released record (its
//     actions and parent owners drive the resync), the record goes back
//     to the Space's free list, and the next Detach or DetachOwner
//     reuses it and the storage of its lists.

// Detached holds a detached-but-not-yet-released set of capability
// subtrees: the output of Detach/DetachOwner, consumed by Release and
// handed back by Reclaim. actions holds one entry per detached node.
// The three lists start in one-entry buffers inside the record, so a
// fresh record of a one-node revoke is one object; a bigger detach
// grows past them, and a reclaimed record keeps what it grew to.
type Detached struct {
	tops    []*node
	actions []CleanupAction
	parents []OwnerID
	state   detState
	next    *Detached // the record after it on the free list

	topBuf    [1]*node
	actionBuf [1]CleanupAction
	parentBuf [1]OwnerID
}

// detState is where a record is in its life: detached, released, or
// back on the free list.
type detState uint8

const (
	detDetached detState = iota
	detReleased
	detFree
)

// newDetached returns an empty record, off the free list when it holds
// one.
func (s *Space) newDetached() *Detached {
	if det := s.free; det != nil {
		s.free, det.next = det.next, nil
		det.state = detDetached
		return det
	}
	det := &Detached{}
	det.tops, det.actions, det.parents = det.topBuf[:0], det.actionBuf[:0], det.parentBuf[:0]
	return det
}

// Actions returns the cleanup actions for the detached subtrees in
// execution order (children first), which is what Revoke returns.
func (d *Detached) Actions() []CleanupAction {
	if d == nil {
		return nil
	}
	return d.actions
}

// ParentOwners returns the distinct owners of the surviving parents
// the detached *granted* tops hang off — the grantors whose suspended
// access Release restores. Their hardware must be resynchronised after
// Release just like the detached owners': the capability space says
// they have the granted-back regions again, but their filters were
// programmed while the suspension was in force. The parent of a shared
// top is not listed: a share never suspended its access, so neither the
// detach nor the release changes it. Captured, sorted, at detach time;
// like Actions, the slice is the record's own and read-only to the
// caller.
func (d *Detached) ParentOwners() []OwnerID {
	if d == nil {
		return nil
	}
	return d.parents
}

// addTop records n, whose subtree was just detached, as a top, and its
// parent's owner if n was granted out of a surviving parent.
func (d *Detached) addTop(n *node) {
	d.tops = append(d.tops, n)
	if n.kind == KindGranted && n.parent != nil && !n.parent.detached {
		d.parents = append(d.parents, n.parent.owner)
	}
}

// detachSubtree walks children-first, removing every node from the
// index and marking it detached, without touching any lineage link.
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
	n, err := s.get(id)
	if err != nil {
		return nil, err
	}
	det := s.newDetached()
	s.detachSubtree(n, det)
	det.addTop(n)
	s.limbo += len(det.actions)
	s.mutate()
	return det, nil
}

// DetachOwner is the publish step of an owner's teardown: every
// capability owned by owner (and everything derived from those) leaves
// the index; the owner's seal flag is cleared. Used when a domain is
// killed.
func (s *Space) DetachOwner(owner OwnerID) *Detached {
	det := s.newDetached()
	for _, n := range s.ownerTops(owner) {
		s.detachSubtree(n, det)
		det.addTop(n)
	}
	slices.Sort(det.parents)
	det.parents = slices.Compact(det.parents)
	if len(det.actions) > 0 {
		s.mutate()
	}
	delete(s.sealed, owner)
	s.limbo += len(det.actions)
	return det
}

// Release unlinks the detached tops from their surviving parents,
// restoring the parents' effective access to anything the detached
// subtrees had been granted, and with that drops the last reference to
// the subtrees. Called after the revoked state has been scrubbed; a
// second call is a no-op. Release does not
// bump the generation: it only widens access back toward the parents,
// and the monitor resynchronises the affected owners' hardware
// immediately after, so any interim staleness is in the restrictive
// direction.
func (s *Space) Release(det *Detached) {
	if det == nil || det.state != detDetached {
		return
	}
	for _, n := range det.tops {
		if n.parent != nil && !n.parent.detached {
			n.parent.children = removeChild(n.parent.children, n)
		}
	}
	s.limbo -= len(det.actions)
	clear(det.tops) // the record must not keep the subtree alive
	det.state = detReleased
}

// Reclaim hands a released record back to the free list, for the next
// Detach or DetachOwner to reuse; the caller must not read it again.
// On a record not yet released it does nothing: its nodes stay linked
// and its parents suspended (fail closed), and the collector takes it
// once the caller drops it. A second call is a no-op too.
func (s *Space) Reclaim(det *Detached) {
	if det == nil || det.state != detReleased {
		return
	}
	det.tops, det.actions, det.parents = det.tops[:0], det.actions[:0], det.parents[:0]
	det.state = detFree
	det.next, s.free = s.free, det
}

// LimboNodes returns how many capability records are detached and not
// yet released: 0 whenever no revocation is in flight. Kept for
// benchmark/ until ROADMAP's benchmark queue (iv).
func (s *Space) LimboNodes() int { return s.limbo }
