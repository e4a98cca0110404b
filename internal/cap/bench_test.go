package cap

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/tyche-sim/tyche/internal/phys"
)

// The traffic owner-sharded locking was built for: disjoint owner pairs
// that never touch each other's capabilities, one pair per RunParallel
// goroutine (so -cpu N exercises N pairs). CHANGES.md (PR 20) holds these
// four at -cpu 1,2 for the sharded Space and for the single lock.

const benchPairs = 8 // run with -cpu up to this

// benchWorld gives each of benchPairs+1 owner pairs (a, b) a slab of 4
// pages shared to a from owner 1's root, and a core shared to a. The
// extra pair is the background delegator's.
type benchWorld struct {
	s     *Space
	slabs [benchPairs + 1]NodeID
	next  atomic.Int32
}

func (w *benchWorld) a(i int) OwnerID      { return OwnerID(10 + 2*i) }
func (w *benchWorld) b(i int) OwnerID      { return OwnerID(11 + 2*i) }
func (w *benchWorld) page(i int) phys.Addr { return phys.Addr(4 * i * pg) }

func newBenchWorld(tb testing.TB) *benchWorld {
	w := &benchWorld{s: NewSpace()}
	root, err := w.s.CreateRoot(1, mem(0, 4*(benchPairs+1)), MemFull, CleanNone)
	if err != nil {
		tb.Fatal(err)
	}
	core, err := w.s.CreateRoot(1, CoreResource(0), CoreFull, CleanNone)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range w.slabs {
		if w.slabs[i], err = w.s.Share(root, w.a(i), mem(uint64(4*i), 4), MemFull, CleanZero); err != nil {
			tb.Fatal(err)
		}
		if _, err := w.s.Share(core, w.a(i), CoreResource(0), RightRun, CleanNone); err != nil {
			tb.Fatal(err)
		}
	}
	return w
}

// pair hands the calling goroutine an owner pair of its own. The bodies
// below run off the benchmark's goroutine, so they report with Error.
func (w *benchWorld) pair(tb testing.TB) int {
	i := int(w.next.Add(1)) - 1
	if i >= benchPairs {
		tb.Errorf("more than %d parallel goroutines: pairs are shared", benchPairs)
	}
	return i % benchPairs
}

// share delegates one page of pair i's slab from a to b.
func (w *benchWorld) share(tb testing.TB, i int) NodeID {
	id, err := w.s.Share(w.slabs[i], w.b(i), mem(uint64(4*i), 1), MemRW, CleanZero)
	if err != nil {
		tb.Error(err)
	}
	return id
}

// shareDetach is one delegation and its two-phase revocation.
func (w *benchWorld) shareDetach(tb testing.TB, i int) {
	det, err := w.s.Detach(w.share(tb, i))
	if err != nil {
		tb.Error(err)
	}
	w.s.Release(det)
}

// read is the three queries the monitor makes on its hot paths: the core
// check of every mediated Call, an access check, and a resync's grants.
func (w *benchWorld) read(tb testing.TB, i int) {
	if !w.s.OwnerHasCore(w.a(i), 0) || !w.s.CheckMemAccess(w.a(i), w.page(i), RightRead) || len(w.s.OwnerMemoryGrants(w.a(i))) != 1 {
		tb.Error("an owner lost what setup gave it")
	}
}

func BenchmarkSpaceParallelShareDetach(b *testing.B) {
	w := newBenchWorld(b)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := w.pair(b)
		for pb.Next() {
			w.shareDetach(b, i)
		}
	})
}

// BenchmarkSpaceParallelShare is delegation alone, as far as a bounded
// space allows: 32 shares, then the receiver torn down in one DetachOwner.
func BenchmarkSpaceParallelShare(b *testing.B) {
	w := newBenchWorld(b)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := w.pair(b)
		for n := 1; pb.Next(); n++ {
			w.share(b, i)
			if n%32 == 0 {
				w.s.RevokeOwner(w.b(i))
			}
		}
	})
}

func BenchmarkSpaceParallelReaders(b *testing.B) {
	w := newBenchWorld(b)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := w.pair(b)
		for pb.Next() {
			w.read(b, i)
		}
	})
}

// BenchmarkSpaceParallelReadersBesideDelegator times the readers while one
// more goroutine delegates and revokes on a pair of its own, and reports
// what that goroutine got done: ns/op alone would call a lock that starves
// the writer a fast one. (The allocation columns include the delegator's.)
func BenchmarkSpaceParallelReadersBesideDelegator(b *testing.B) {
	w := newBenchWorld(b)
	var stop atomic.Bool
	var delegations int
	var done sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	done.Add(1)
	go func() {
		defer done.Done()
		for ; !stop.Load(); delegations++ {
			w.shareDetach(b, benchPairs)
		}
	}()
	b.RunParallel(func(pb *testing.PB) {
		i := w.pair(b)
		for pb.Next() {
			w.read(b, i)
		}
	})
	stop.Store(true)
	done.Wait()
	b.ReportMetric(float64(delegations)/b.Elapsed().Seconds(), "delegations/s")
}
