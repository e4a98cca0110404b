package libtyche

import (
	"fmt"
	"sync"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/image"
	"github.com/tyche-sim/tyche/internal/phys"
)

// ringRoundBatch is a round's shares, then its revokes: one benchmark
// cap_ring op.
const ringRoundBatch = 8

// ringRoundWorld is the shape the benchmark's cap_ring world has: a
// sealed tenant enclave with a 256-page heap, its unsealed child (which
// holds capabilities of its own), an eight-entry ring in the tenant's
// heap, and a pool of heap pages the rounds share.
type ringRoundWorld struct {
	ring  *Ring
	heap  cap.NodeID
	child core.DomainID
	pool  phys.Region
}

func newRingRoundWorld(t testing.TB) *ringRoundWorld {
	t.Helper()
	c := world(t, core.BackendVTX)
	halt := func(name string) *image.Image {
		a := hw.NewAsm()
		a.Hlt()
		return image.NewProgram(name, a.MustAssemble(0))
	}
	opts := DefaultLoadOptions()
	opts.Cores = []phys.CoreID{1}
	tenant, err := c.NewEnclave(halt("tenant").WithHeap(".heap", 256*pg), opts)
	if err != nil {
		t.Fatal(err)
	}
	tc := tenant.Client()
	heapNode, _ := tenant.SegmentNode(".heap")
	heap, _ := tenant.SegmentRegion(".heap")
	if err := tc.SetHeap(heapNode, heap); err != nil {
		t.Fatal(err)
	}
	child, err := tc.Load(halt("child"), opts)
	if err != nil {
		t.Fatal(err)
	}
	w := &ringRoundWorld{heap: heapNode, child: child.ID()}
	if w.ring, err = tc.NewRing(ringRoundBatch); err != nil {
		t.Fatal(err)
	}
	if w.pool, err = tc.Alloc(64); err != nil {
		t.Fatal(err)
	}
	return w
}

// flush rings the doorbell for a full batch and reaps its completions,
// checking every status.
func (w *ringRoundWorld) flush() ([]Completion, error) {
	n, err := w.ring.Flush()
	if err != nil {
		return nil, err
	}
	cs, err := w.ring.Reap()
	if err != nil {
		return nil, err
	}
	if n != ringRoundBatch || len(cs) != ringRoundBatch {
		return nil, fmt.Errorf("ring executed %d and completed %d of %d descriptors", n, len(cs), ringRoundBatch)
	}
	for i, c := range cs {
		if c.Status != core.StatusOK {
			return nil, fmt.Errorf("descriptor %d: status %d", i, c.Status)
		}
	}
	return cs, nil
}

// round shares eight pool pages from start on to the child through the
// ring, then revokes them through it.
func (w *ringRoundWorld) round(start uint64) error {
	rights := uint64(cap.MemRW) | uint64(cap.CleanZero|cap.CleanFlushTLB)<<16
	pages := w.pool.Pages()
	for k := uint64(0); k < ringRoundBatch; k++ {
		a := w.pool.Start + phys.Addr((start+k)%pages*pg)
		if err := w.ring.Enqueue(core.CallShare, uint64(w.heap), uint64(w.child), uint64(a), pg, rights); err != nil {
			return err
		}
	}
	shared, err := w.flush()
	if err != nil {
		return err
	}
	for _, c := range shared {
		if err := w.ring.Enqueue(core.CallRevoke, c.Result); err != nil {
			return err
		}
	}
	_, err = w.flush()
	return err
}

// TestRingRoundAllocations pins the allocations of one share + revoke
// round through the ring at what the round keeps or hands on: its eight
// capability nodes and the two slices Reap returns. The header words
// and the completion span are read in place, the revocation records are
// reused, and every filter write splices into its table's spare buffer;
// when each of those allocated, the round was 48 objects.
func TestRingRoundAllocations(t *testing.T) {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		if p.Put(new(int)); p.Get() == nil {
			t.Skip("sync.Pool drops items (race detector): the backends' scratch reallocates at random")
		}
	}
	w := newRingRoundWorld(t)
	const pinned = ringRoundBatch + 2
	var i uint64
	allocs := testing.AllocsPerRun(100, func() {
		if err := w.round(i); err != nil {
			t.Fatal(err)
		}
		i += ringRoundBatch
	})
	if allocs > pinned {
		t.Fatalf("a ring share + revoke round allocates %.0f objects, pinned at %d", allocs, pinned)
	}
	t.Logf("a ring share + revoke round allocates %.0f objects (pinned at %d)", allocs, pinned)
}

// BenchmarkRingShareRevokeRound is one cap_ring op, the ring twin of
// internal/core's BenchmarkShareRevokeRound: eight shares of heap pages
// from the tenant to its child, one flush and reap, then the eight
// revokes, one flush and reap.
func BenchmarkRingShareRevokeRound(b *testing.B) {
	w := newRingRoundWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.round(uint64(i) * ringRoundBatch); err != nil {
			b.Fatal(err)
		}
	}
}
