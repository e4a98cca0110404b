package fleet

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/tyche-sim/tyche/internal/dist"
	"github.com/tyche-sim/tyche/internal/fault"
)

// hopWorld is a 3-node fleet with service "pay" placed once, and the
// two counts a hop's attestation work shows up in: TPM quotes (tier one:
// two per channel handshake, one per attestation session) and domain
// reports (tier two) over all nodes.
type hopWorld struct {
	f      *Fleet
	quotes int
}

func newHopWorld(t testing.TB) *hopWorld {
	t.Helper()
	w := &hopWorld{f: newTestFleet(t, 3)}
	for _, n := range w.f.Nodes {
		n.TPM.SetQuoteHook(func() error { w.quotes++; return nil })
	}
	if err := w.f.Deploy(ServiceSpec{Name: "pay", Delta: 777}, 1); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *hopWorld) reports() uint64 {
	var n uint64
	for _, node := range w.f.Nodes {
		n += node.Mon.Stats().Attests
	}
	return n
}

// at is the node "pay" is placed on.
func (w *hopWorld) at(t testing.TB) int {
	t.Helper()
	pls := w.f.LB().Placements("pay")
	if len(pls) != 1 {
		t.Fatalf("pay has %d placements, want 1", len(pls))
	}
	return pls[0].Node
}

// hop migrates "pay" to node `to` over wire and fails the test if that
// does not succeed.
func (w *hopWorld) hop(t testing.TB, to int, wire *dist.Wire) {
	t.Helper()
	if err := w.f.Migrate("pay", w.at(t), to, wire); err != nil {
		t.Fatal(err)
	}
	if got := w.at(t); got != to {
		t.Fatalf("pay is on node%d after a hop to node%d", got, to)
	}
}

// channel is the open channel between nodes a and b, nil if there is
// none.
func (w *hopWorld) channel(a, b int) *dist.Conn {
	if a > b {
		a, b = b, a
	}
	pc := w.f.pairs[[2]int{a, b}]
	if pc == nil {
		return nil
	}
	return pc.conn
}

// steadyHop performs a hop to `to` that must ride the pair's open
// channel: no handshake, no TPM quote, one domain report.
func (w *hopWorld) steadyHop(t *testing.T, to int) {
	t.Helper()
	from := w.at(t)
	kept := w.channel(from, to)
	if kept == nil {
		t.Fatalf("node%d and node%d have no open channel", from, to)
	}
	quotes, reports := w.quotes, w.reports()
	w.hop(t, to, nil)
	if w.channel(from, to) != kept {
		t.Errorf("hop node%d->node%d replaced the pair's open channel", from, to)
	}
	if got := w.quotes - quotes; got != 0 {
		t.Errorf("hop node%d->node%d took %d TPM quotes, want 0", from, to, got)
	}
	if got := w.reports() - reports; got != 1 {
		t.Errorf("hop node%d->node%d had %d domain reports made, want 1 (the restored tenant)", from, to, got)
	}
}

// abortedHop sends "pay" toward `to` over a wire that loses or damages
// the frame: the hop must fail with want, leave the source serving and
// the target untouched, and close the pair's channel.
func (w *hopWorld) abortedHop(t *testing.T, to int, wire *dist.Wire, want error) {
	t.Helper()
	from := w.at(t)
	before := w.f.LB().Placements("pay")[0]
	targetDomains := len(w.f.Nodes[to].Mon.Domains())
	if err := w.f.Migrate("pay", from, to, wire); !errors.Is(err, want) {
		t.Fatalf("hop over a faulty wire: err = %v, want %v", err, want)
	}
	if after := w.f.LB().Placements("pay"); len(after) != 1 || after[0] != before {
		t.Fatalf("source placement disturbed by the abort: %+v", after)
	}
	if got := len(w.f.Nodes[to].Mon.Domains()); got != targetDomains {
		t.Fatalf("target grew %d domains during the aborted hop", got-targetDomains)
	}
	if _, err := w.f.Serve([]string{"pay"}, 20, 1); err != nil {
		t.Fatal(err)
	}
	if w.channel(from, to) != nil {
		t.Fatal("a failed transfer left the pair's channel open: its sequence number would seal a second snapshot")
	}
}

// inTurn runs two migrations, one after the other.
func (w *hopWorld) inTurn(t *testing.T, svcA string, fromA, toA int, svcB string, fromB, toB int) {
	t.Helper()
	for _, err := range []error{w.f.Migrate(svcA, fromA, toA, nil), w.f.Migrate(svcB, fromB, toB, nil)} {
		if err != nil {
			t.Error(err)
		}
	}
}

type lifecycleCase struct {
	name string
	run  func(t *testing.T, w *hopWorld)
}

// TestFleetMigrationChannelLifecycle: what opens a node pair's kept
// channel, what rides it, and what closes it.
func TestFleetMigrationChannelLifecycle(t *testing.T) {
	// abortRow: a hop whose frame the wire loses or damages aborts as it
	// always did and closes the channel; the clean retry opens a new one —
	// one handshake, two quotes (both sessions exist), and new keys with
	// it (dist's TestReconnectDerivesFreshKeys).
	abortRow := func(kind string, wire *dist.Wire, want error) lifecycleCase {
		return lifecycleCase{"a " + kind + " frame closes the channel and the next hop re-handshakes", func(t *testing.T, w *hopWorld) {
			w.hop(t, 1, nil)
			first := w.channel(0, 1)
			w.abortedHop(t, 0, wire, want)
			quotes := w.quotes
			w.hop(t, 0, nil)
			if got := w.quotes - quotes; got != 2 {
				t.Errorf("the hop after an abort took %d TPM quotes, want 2 (one handshake)", got)
			}
			if again := w.channel(0, 1); again == nil || again == first {
				t.Error("the hop after an abort did not open a new channel")
			}
			w.steadyHop(t, 1)
			auditClean(t, w.f)
		}}
	}
	dropping := &dist.Wire{}
	dropping.Arm([]fault.Fault{{Kind: fault.LinkDrop}})
	tampering := &dist.Wire{Corrupt: func(f []byte) []byte { f[len(f)/2] ^= 1; return f }}
	cases := []lifecycleCase{
		{"first hop handshakes once, later hops not at all", func(t *testing.T, w *hopWorld) {
			// Deploy's placement proved node 0's session; the first hop
			// pays one handshake (two quotes) and node 1's session.
			w.hop(t, 1, nil)
			if got := w.quotes; got != 4 {
				t.Errorf("placement and first hop took %d TPM quotes, want 4", got)
			}
			w.hop(t, 2, nil)
			w.hop(t, 0, nil)
			// Every pair is open and every node has a session: from here
			// on a hop is tier two only, whichever way it goes.
			for _, to := range []int{1, 2, 0, 2, 1, 0} {
				w.steadyHop(t, to)
			}
			if _, err := w.f.Serve([]string{"pay"}, 40, 1); err != nil {
				t.Fatal(err)
			}
			auditClean(t, w.f)
		}},
		{"the reverse direction rides the same channel", func(t *testing.T, w *hopWorld) {
			w.hop(t, 1, nil)
			w.steadyHop(t, 0)
			w.steadyHop(t, 1)
			auditClean(t, w.f)
		}},
		{"FailNode drops the dead node's channels and session", func(t *testing.T, w *hopWorld) {
			w.hop(t, 1, nil)
			w.hop(t, 2, nil)
			survivor := w.channel(1, 2)
			w.f.FailNode(0)
			if err := w.f.Migrate("pay", 2, 0, nil); err == nil {
				t.Error("a hop to a failed node was accepted")
			}
			if w.channel(0, 1) != nil || w.channel(0, 2) != nil {
				t.Error("a failed node's channels outlived it")
			}
			if w.f.Nodes[0].sess != nil {
				t.Error("a failed node's attestation session outlived it")
			}
			if survivor == nil || w.channel(1, 2) != survivor {
				t.Error("failing node0 disturbed the channel between node1 and node2")
			}
			w.steadyHop(t, 1)
			auditClean(t, w.f)
		}},
		{"a dead agent closes the channel before the freeze", func(t *testing.T, w *hopWorld) {
			w.hop(t, 1, nil)
			if err := w.f.Nodes[0].Mon.ForceKill(w.f.Nodes[0].Agent.ID()); err != nil {
				t.Fatal(err)
			}
			pl := w.f.LB().Placements("pay")[0]
			blackouts, out := len(w.f.Blackouts()), w.f.Stats().MigrationsOut
			err := w.f.Migrate("pay", 1, 0, nil)
			if err == nil || !strings.Contains(err.Error(), "connect") {
				t.Fatalf("hop to a node whose agent is gone: err = %v, want a connect failure", err)
			}
			if after := w.f.LB().Placements("pay"); len(after) != 1 || after[0] != pl {
				t.Fatalf("placements after the refused hop: %+v", after)
			}
			if got := len(w.f.Blackouts()); got != blackouts {
				t.Fatalf("a refused hop recorded a blackout")
			}
			if got := w.f.Stats().MigrationsOut; got != out {
				t.Fatalf("a refused hop snapshotted the source: MigrationsOut %d -> %d", out, got)
			}
			if w.channel(0, 1) != nil {
				t.Fatal("the channel outlived the agent that held its keys")
			}
		}},
		{"two services cross one pair in turn", func(t *testing.T, w *hopWorld) {
			// "idx" lands on the emptiest node; the two then swap nodes, so
			// the second hop rides the channel the first opened, the other
			// way.
			if err := w.f.Deploy(ServiceSpec{Name: "idx", Delta: 31}, 1); err != nil {
				t.Fatal(err)
			}
			pay, idx := w.at(t), w.f.LB().Placements("idx")[0].Node
			if pay == idx {
				t.Fatalf("both services were placed on node%d", pay)
			}
			quotes := w.quotes
			w.inTurn(t, "pay", pay, idx, "idx", idx, pay)
			if got := w.quotes - quotes; got != 2 {
				t.Errorf("two hops over one pair took %d TPM quotes, want 2 (one handshake)", got)
			}
			if got := w.f.LB().Placements("idx")[0].Node; w.at(t) != idx || got != pay {
				t.Errorf("after the swap pay is on node%d and idx on node%d, want node%d and node%d", w.at(t), got, idx, pay)
			}
			if _, err := w.f.Serve([]string{"pay", "idx"}, 80, 1); err != nil {
				t.Fatal(err)
			}
			auditClean(t, w.f)
		}},
		{"two sources reach one target in turn", func(t *testing.T, w *hopWorld) {
			// Two pairs that share node 2: their handshakes both bind a key
			// into node 2's agent report, and the first hop proves node 2's
			// session for both.
			if err := w.f.Deploy(ServiceSpec{Name: "idx", Delta: 31}, 1); err != nil {
				t.Fatal(err)
			}
			pay, idx := w.at(t), w.f.LB().Placements("idx")[0].Node
			if pay == 2 || idx == 2 || pay == idx {
				t.Fatalf("pay on node%d and idx on node%d: want them apart and node2 empty", pay, idx)
			}
			quotes := w.quotes
			w.inTurn(t, "pay", pay, 2, "idx", idx, 2)
			if got := w.quotes - quotes; got != 5 {
				t.Errorf("two first hops into node2 took %d TPM quotes, want 5 (two handshakes, one session)", got)
			}
			if _, err := w.f.Serve([]string{"pay", "idx"}, 80, 1); err != nil {
				t.Fatal(err)
			}
			auditClean(t, w.f)
		}},
		abortRow("dropped", dropping, dist.ErrLinkLost),
		abortRow("tampered", tampering, dist.ErrTampered),
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newHopWorld(t)) })
	}
}

// TestDigestChannelRetainsNoFrames: a node's digest channel lives as
// long as the fleet, so a wire that kept what it carried would grow by
// every digest ever shipped. Ship 16 MiB over one and require the live
// heap to have kept less than a quarter of it.
func TestDigestChannelRetainsNoFrames(t *testing.T) {
	f := newTestFleet(t, 2)
	n := f.Nodes[0]
	digest := make([]byte, 256<<10)
	const digests = 64
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := liveHeap()
	for i := 0; i < digests; i++ {
		if _, err := n.conn.Send(n.ep, digest); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(f) // or the second measurement is of a heap without the fleet
	if after > before && after-before > digests*uint64(len(digest))/4 {
		t.Fatalf("live heap grew %d KiB over %d digests of %d KiB: the digest wire retains its frames",
			(after-before)>>10, digests, len(digest)>>10)
	}
}

// TestMigrateHopAllocations pins what a steady-state hop — freeze,
// snapshot, encode, sealed send over the pair's open channel, restore,
// re-attest, departure scrub — asks of the allocator. The capability
// questions the hop asks about its tenant (is each grant exclusive, its
// reference counts, what its departure scrubs) sweep the pieces over
// that tenant into stack buffers; a hop that went back to building the
// machine-wide reference-count map three times would cost ~85 more.
// Filter writes splice into each table's spare buffer and revocation
// records are reused, which took a hop from 77 objects to 70, its
// measure now; under the race
// detector, where sync.Pool drops items on purpose and pooled scratch is
// reallocated at random, at 77-78.
func TestMigrateHopAllocations(t *testing.T) {
	bound := 75.0
	if !poolKeepsItems() {
		bound = 95
	}
	w := newHopWorld(t)
	for _, to := range []int{1, 2, 0} { // open every pair's channel
		w.hop(t, to, nil)
	}
	i := 0
	n := testing.AllocsPerRun(30, func() {
		w.hop(t, (w.at(t)+1+i%2)%3, nil)
		i++
	})
	if n > bound {
		t.Errorf("a warmed hop allocates %v objects, want at most %v", n, bound)
	}
	t.Logf("a warmed hop allocates %v objects (bound %v)", n, bound)
}

// TestFleetLiveHeap pins what a small fleet costs the host: three
// default-sized (32 MiB) nodes, a service and 64 hops around them keep
// under 8 MiB live, because a node's memory holds frames only for the
// pages its software wrote (a flat memory held 96 MiB for the three).
func TestFleetLiveHeap(t *testing.T) {
	const bound = 8 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := New(Config{Nodes: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	w := &hopWorld{f: f}
	if err := f.Deploy(ServiceSpec{Name: "pay", Delta: 777}, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		w.hop(t, (w.at(t)+1+i%2)%3, nil)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(f)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap after 64 hops: %.1f MiB", float64(live)/(1<<20))
	if live > bound {
		t.Errorf("a 3-node fleet after 64 hops holds %.1f MiB live, want at most %d MiB",
			float64(live)/(1<<20), bound>>20)
	}
}

// poolKeepsItems reports whether a sync.Pool hands back what it was just
// given: under the race detector Put drops a quarter of its arguments.
func poolKeepsItems() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return false
		}
	}
	return true
}

// BenchmarkMigrateHop is one steady-state hop of a service around a
// 3-node fleet whose pairs are all open: ns/hop and allocs/hop, and
// handshakes/hop, which is the TPM quotes taken over two (a handshake
// quotes both ends; every node's session exists before the timer
// starts) and must read 0.
func BenchmarkMigrateHop(b *testing.B) {
	w := newHopWorld(b)
	for _, to := range []int{1, 2, 0} {
		w.hop(b, to, nil)
	}
	quotes := w.quotes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.hop(b, (w.at(b)+1+i%2)%3, nil)
	}
	b.StopTimer()
	b.ReportMetric(float64(w.quotes-quotes)/2/float64(b.N), "handshakes/hop")
}
