package libtyche

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/phys"
)

// Guest-side half of the batched ABI (core/ring.go): a Ring wraps a
// submission/completion ring living in the domain's own memory. The
// library enqueues descriptors with capability-checked stores — the
// same plain writes interpreted guest code would issue — and rings the
// doorbell once per batch. Go-level embedders use this to drive the
// batched path without assembling guest programs; the C20 experiment's
// assembly guests write the same layout by hand.

// ErrRingFull reports a submission ring with no free slot. The caller
// falls back to the synchronous trap path (or flushes first): full is
// backpressure, not failure.
var ErrRingFull = errors.New("libtyche: submission ring full")

// ErrCQOverrun reports a completion tail more than the ring's capacity
// ahead of what Reap has consumed. The tail word lives in guest memory,
// so anything in the domain can write it; Reap consumes nothing then.
var ErrCQOverrun = errors.New("libtyche: completion tail overruns the ring")

// Completion is one completion-queue entry: the status and r1 result
// the verb would have returned synchronously.
type Completion struct {
	Status uint64
	Result uint64
}

// Ring is a client's handle on its domain's submission ring.
type Ring struct {
	cl      *Client
	base    phys.Addr
	entries uint64
	// tail/cqHead are the library's local cursors: tail mirrors what the
	// guest last published in the sqTail word; cqHead tracks how far
	// Reap has consumed completions.
	tail   uint64
	cqHead uint64
	// cq is Reap's read buffer, kept across calls.
	cq []byte
}

// NewRing allocates ring memory from the client's heap, registers it
// with the monitor, and returns the handle. Capacity must be in
// [1, core.MaxRingEntries].
func (c *Client) NewRing(entries uint64) (*Ring, error) {
	size := core.RingBytes(entries)
	pages := (size + phys.PageSize - 1) / phys.PageSize
	region, err := c.Alloc(pages)
	if err != nil {
		return nil, err
	}
	return c.ringAt(region.Start, entries)
}

// ringAt registers a ring at a caller-chosen base address (the memory
// must already be the domain's, read+write).
func (c *Client) ringAt(base phys.Addr, entries uint64) (*Ring, error) {
	if err := c.mon.RingSetup(c.self, base, entries); err != nil {
		return nil, err
	}
	return &Ring{cl: c, base: base, entries: entries}, nil
}

// Enqueue publishes one descriptor (verb + up to five args, the r1..r5
// of the synchronous ABI) without trapping. It returns ErrRingFull when
// the ring has no free slot — the monitor's consume index, mirrored in
// the sqHead word, bounds how far the tail may run ahead.
func (r *Ring) Enqueue(verb uint64, args ...uint64) error {
	if len(args) > 5 {
		return fmt.Errorf("libtyche: descriptor takes at most 5 args, got %d", len(args))
	}
	head, err := r.word(core.RingOffSQHead)
	if err != nil {
		return err
	}
	if r.tail-head >= r.entries {
		return ErrRingFull
	}
	var desc [core.RingDescBytes]byte
	binary.LittleEndian.PutUint64(desc[0:], verb)
	for i, a := range args {
		binary.LittleEndian.PutUint64(desc[8*(i+1):], a)
	}
	off := core.RingSQOff(r.entries, r.tail)
	if err := r.cl.Write(r.base+phys.Addr(off), desc[:]); err != nil {
		return err
	}
	r.tail++
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], r.tail)
	return r.cl.Write(r.base+core.RingOffSQTail, w[:])
}

// Flush rings the doorbell: the monitor drains the ring as one batch.
// It returns the number of descriptors executed.
func (r *Ring) Flush() (uint64, error) {
	return r.cl.mon.RingFlush(r.cl.self)
}

// Reap collects the completions posted since the last Reap, in
// submission order. It trusts the completion tail only as far as the
// monitor's own flush does (core/ring.go): a tail more than the ring's
// capacity ahead returns ErrCQOverrun. The pending span takes one
// capability-checked read, or two when it wraps past the last slot,
// into the ring's own buffer, and Reap moves its cursor only once they
// have succeeded, so a failed Reap loses nothing. The result is a fresh
// slice, the caller's to keep.
func (r *Ring) Reap() ([]Completion, error) {
	cqTail, err := r.word(core.RingOffCQTail)
	if err != nil {
		return nil, err
	}
	pending := cqTail - r.cqHead
	if pending == 0 {
		return nil, nil
	}
	if pending > r.entries {
		return nil, fmt.Errorf("%w: tail %d is %d entries past head %d, capacity %d",
			ErrCQOverrun, cqTail, pending, r.cqHead, r.entries)
	}
	first := min(pending, r.entries-r.cqHead%r.entries) * core.RingCQBytes
	b := slices.Grow(r.cq[:0], int(pending*core.RingCQBytes))[:pending*core.RingCQBytes]
	r.cq = b
	if err := r.read(core.RingCQOff(r.entries, r.cqHead), b[:first]); err != nil {
		return nil, err
	}
	if first < uint64(len(b)) {
		if err := r.read(core.RingCQOff(r.entries, 0), b[first:]); err != nil {
			return nil, err
		}
	}
	out := make([]Completion, pending)
	for i := range out {
		e := b[i*core.RingCQBytes:]
		out[i] = Completion{
			Status: binary.LittleEndian.Uint64(e[0:8]),
			Result: binary.LittleEndian.Uint64(e[8:16]),
		}
	}
	r.cqHead = cqTail
	return out, nil
}

// word reads one 64-bit header word (capability-checked like any other
// guest access).
func (r *Ring) word(off uint64) (uint64, error) {
	var w [8]byte
	if err := r.read(off, w[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(w[:]), nil
}

// read fills buf from the ring at offset off, capability-checked.
func (r *Ring) read(off uint64, buf []byte) error {
	return r.cl.mon.ReadInto(r.cl.self, r.base+phys.Addr(off), buf)
}
