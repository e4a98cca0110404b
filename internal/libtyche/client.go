package libtyche

import (
	"errors"
	"fmt"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/phys"
)

// Client is a domain's handle on libtyche: it issues monitor API calls
// as that domain and allocates from a memory pool the domain owns. Any
// domain can hold a Client — including one created by another Client's
// Load — which is what makes nesting work: an enclave maps libtyche and
// spawns nested enclaves from its own memory (§4.2).
type Client struct {
	mon  *core.Monitor
	self core.DomainID

	heapNode cap.NodeID
	heap     *Allocator
}

// ErrNoHeap reports an operation needing allocation before SetHeap.
var ErrNoHeap = errors.New("libtyche: client has no heap configured")

// New returns a Client acting as domain self.
func New(mon *core.Monitor, self core.DomainID) *Client {
	return &Client{mon: mon, self: self}
}

// Monitor returns the underlying monitor.
func (c *Client) Monitor() *core.Monitor { return c.mon }

// Self returns the domain this client acts as.
func (c *Client) Self() core.DomainID { return c.self }

// SetHeap designates the memory capability and sub-region the client
// allocates domain memory from. The region must lie within the node's
// effective memory and the node must be delegable.
func (c *Client) SetHeap(node cap.NodeID, pool phys.Region) error {
	found := false
	for _, n := range c.mon.OwnerNodes(c.self) {
		if n.ID != node {
			continue
		}
		found = true
		if n.Resource.Kind != cap.ResMemory {
			return fmt.Errorf("libtyche: heap node %d is not memory", node)
		}
		if !n.Resource.Mem.ContainsRegion(pool) {
			return fmt.Errorf("libtyche: pool %v outside capability %v", pool, n.Resource.Mem)
		}
		if !n.Rights.Has(cap.RightShare | cap.RightGrant) {
			return fmt.Errorf("libtyche: heap capability lacks delegation rights (%v)", n.Rights)
		}
	}
	if !found {
		return fmt.Errorf("libtyche: domain %d does not own capability %d", c.self, node)
	}
	a, err := NewAllocator(pool)
	if err != nil {
		return err
	}
	c.heapNode = node
	c.heap = a
	return nil
}

// AutoHeap configures the heap from the domain's largest delegable
// memory capability, reserving the first reservePages pages (e.g. for
// the domain's own code/data already placed there).
func (c *Client) AutoHeap(reservePages uint64) error {
	var best cap.Info
	for _, n := range c.mon.OwnerNodes(c.self) {
		if n.Resource.Kind != cap.ResMemory || !n.Rights.Has(cap.RightShare|cap.RightGrant) {
			continue
		}
		if n.Resource.Mem.Size() > best.Resource.Mem.Size() {
			best = n
		}
	}
	if best.Resource.Mem.Empty() {
		return fmt.Errorf("libtyche: domain %d has no delegable memory", c.self)
	}
	pool := best.Resource.Mem
	pool.Start += phys.Addr(reservePages * phys.PageSize)
	if pool.Empty() {
		return fmt.Errorf("libtyche: reservation %d pages consumes the whole pool", reservePages)
	}
	return c.SetHeap(best.ID, pool)
}

// Heap returns the client's allocator (nil before SetHeap).
func (c *Client) Heap() *Allocator { return c.heap }

// HeapNode returns the capability node backing the heap (zero before
// SetHeap) — the node further delegations of heap memory derive from.
func (c *Client) HeapNode() cap.NodeID { return c.heapNode }

// Alloc carves a fresh region from the heap.
func (c *Client) Alloc(pages uint64) (phys.Region, error) {
	if c.heap == nil {
		return phys.Region{}, ErrNoHeap
	}
	return c.heap.Alloc(pages)
}

// Write stores data into the client's own memory (capability-checked).
func (c *Client) Write(a phys.Addr, data []byte) error {
	return c.mon.CopyInto(c.self, a, data)
}

// Read loads from the client's own memory (capability-checked).
func (c *Client) Read(a phys.Addr, n uint64) ([]byte, error) {
	return c.mon.CopyFrom(c.self, a, n)
}

// coreNode finds the client's capability for a core.
func (c *Client) coreNode(id phys.CoreID) (cap.NodeID, error) {
	for _, n := range c.mon.OwnerNodes(c.self) {
		if n.Resource.Kind == cap.ResCore && n.Resource.Core == id {
			return n.ID, nil
		}
	}
	return 0, fmt.Errorf("libtyche: domain %d holds no capability for %v", c.self, id)
}

// deviceNode finds the client's capability for a device.
func (c *Client) deviceNode(id phys.DeviceID) (cap.NodeID, error) {
	for _, n := range c.mon.OwnerNodes(c.self) {
		if n.Resource.Kind == cap.ResDevice && n.Resource.Device == id {
			return n.ID, nil
		}
	}
	return 0, fmt.Errorf("libtyche: domain %d holds no capability for %v", c.self, id)
}
