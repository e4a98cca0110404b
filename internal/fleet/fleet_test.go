package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/dist"
	"github.com/tyche-sim/tyche/internal/fault"
	"github.com/tyche-sim/tyche/internal/image"
	"github.com/tyche-sim/tyche/internal/trace"
)

func newTestFleet(t testing.TB, nodes int) *Fleet {
	t.Helper()
	f, err := New(Config{
		Nodes:        nodes,
		CoresPerNode: 3,
		MemBytes:     16 << 20,
		Seed:         42,
		Spin:         25,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// auditClean finalizes fleet verification and fails the test on any
// node's violation or chain flag.
func auditClean(t *testing.T, f *Fleet) {
	t.Helper()
	audits, err := f.Audit()
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	for _, a := range audits {
		if a.SelfErr != nil {
			t.Errorf("%s self-verdict: %v", a.Node, a.SelfErr)
		}
		if len(a.Flags) != 0 {
			t.Errorf("%s flagged by fleet verifier: %v", a.Node, a.Flags)
		}
		if a.Digests < 2 {
			t.Errorf("%s shipped %d digests, want >= 2", a.Node, a.Digests)
		}
	}
}

func TestFleetPlacementAndServing(t *testing.T) {
	f := newTestFleet(t, 3)
	if err := f.Deploy(ServiceSpec{Name: "alpha", Delta: 100}, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(ServiceSpec{Name: "beta", Delta: 9000}, 2); err != nil {
		t.Fatal(err)
	}
	// Distinct nodes per replica.
	for _, svc := range []string{"alpha", "beta"} {
		if n := len(f.LB().ReplicaNodes(svc)); n != 2 {
			t.Fatalf("%s on %d nodes, want 2", svc, n)
		}
	}
	// No service named: an error, and nothing runs or pulses.
	before := f.Nodes[0].Mon.Stats()
	if stats, err := f.Serve(nil, 10, 1); err == nil || stats != (ServeStats{}) {
		t.Fatalf("Serve with no services = %+v, %v; want an error", stats, err)
	}
	if after := f.Nodes[0].Mon.Stats(); after != before {
		t.Fatalf("Serve with no services changed node0: %+v -> %+v", before, after)
	}
	stats, err := f.Serve([]string{"alpha", "beta"}, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 400 {
		t.Fatalf("served %d requests, want 400", stats.Requests)
	}
	if stats.NodeKills != 0 {
		t.Fatalf("unexpected node kills: %d", stats.NodeKills)
	}
	auditClean(t, f)
}

func TestFleetLiveMigration(t *testing.T) {
	f := newTestFleet(t, 2)
	if err := f.Deploy(ServiceSpec{Name: "pay", Delta: 777}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Serve([]string{"pay"}, 50, 1); err != nil {
		t.Fatal(err)
	}
	pl := f.LB().Placements("pay")[0]
	from := pl.Node
	to := 1 - from
	oldDom := pl.Dom
	if err := f.Migrate("pay", from, to, nil); err != nil {
		t.Fatal(err)
	}
	// The placement moved, the source instance is dead (crypto-erased
	// on departure), and both sides counted the migration.
	moved := f.LB().Placements("pay")
	if len(moved) != 1 || moved[0].Node != to {
		t.Fatalf("placement after migration: %+v", moved)
	}
	d, err := f.Nodes[from].Mon.Domain(oldDom)
	if err != nil {
		t.Fatal(err)
	}
	if d.State() != core.StateDead {
		t.Fatalf("source instance state %v, want dead", d.State())
	}
	// MigrationsIn counts every restore: the initial admission plus the
	// live migration.
	s := f.Stats()
	if s.MigrationsOut != 1 || s.MigrationsIn != 2 {
		t.Fatalf("migration counters out=%d in=%d, want 1/2", s.MigrationsOut, s.MigrationsIn)
	}
	if bs := f.Blackouts(); len(bs) != 1 || bs[0] == 0 {
		t.Fatalf("blackout not recorded: %v", f.Blackouts())
	}
	// The moved instance serves with the same transform.
	if _, err := f.Serve([]string{"pay"}, 50, 1); err != nil {
		t.Fatal(err)
	}
	auditClean(t, f)
}

// TestFleetMigrationAbortsCleanly covers the link-fault satellite: a
// dropped migration frame and a tampered migration payload both abort
// with the source intact and no half-state on the target.
func TestFleetMigrationAbortsCleanly(t *testing.T) {
	f := newTestFleet(t, 2)
	if err := f.Deploy(ServiceSpec{Name: "idx", Delta: 31}, 1); err != nil {
		t.Fatal(err)
	}
	pl := f.LB().Placements("idx")[0]
	from, to := pl.Node, 1-pl.Node
	targetDomains := len(f.Nodes[to].Mon.Domains())

	// Dropped in flight: the deterministic link fault discards the
	// migration frame; the sender sees ErrLinkLost.
	wire := &dist.Wire{}
	wire.Arm([]fault.Fault{{Kind: fault.LinkDrop}})
	err := f.Migrate("idx", from, to, wire)
	if !errors.Is(err, dist.ErrLinkLost) {
		t.Fatalf("dropped frame: err = %v, want ErrLinkLost", err)
	}
	if wire.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", wire.Dropped)
	}

	// Tampered in flight: a flipped ciphertext byte must surface as
	// ErrTampered end-to-end.
	wire = &dist.Wire{}
	wire.Corrupt = func(frame []byte) []byte {
		frame[len(frame)-40] ^= 0x01
		return frame
	}
	err = f.Migrate("idx", from, to, wire)
	if !errors.Is(err, dist.ErrTampered) {
		t.Fatalf("tampered frame: err = %v, want ErrTampered", err)
	}

	// Both aborts left the source serving and the target untouched.
	after := f.LB().Placements("idx")
	if len(after) != 1 || after[0].Node != from || after[0].Dom != pl.Dom {
		t.Fatalf("source placement disturbed by abort: %+v", after)
	}
	if got := len(f.Nodes[to].Mon.Domains()); got != targetDomains {
		t.Fatalf("target grew %d domains during aborted migrations", got-targetDomains)
	}
	if _, err := f.Serve([]string{"idx"}, 40, 1); err != nil {
		t.Fatal(err)
	}

	// A clean wire completes the same migration.
	if err := f.Migrate("idx", from, to, nil); err != nil {
		t.Fatal(err)
	}
	auditClean(t, f)
}

// TestFleetMigrateConnectsBeforeFreeze: the channel handshake runs
// before the placement is frozen, so one that fails — here the source
// expects a different agent on the target than the one that answers —
// returns at once with the placement never deregistered. The request
// held in flight across the call is what tells "never frozen" from
// "frozen and re-registered": a freeze would have to drain it first.
func TestFleetMigrateConnectsBeforeFreeze(t *testing.T) {
	f := newTestFleet(t, 2)
	if err := f.Deploy(ServiceSpec{Name: "idx", Delta: 31}, 1); err != nil {
		t.Fatal(err)
	}
	pl := f.LB().Placements("idx")[0]
	from, to := pl.Node, 1-pl.Node
	f.Nodes[to].AgentImg = image.NewProgram("impostor", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if !pl.tryAcquire() {
		t.Fatal("placement not routable")
	}
	err := f.Migrate("idx", from, to, nil)
	pl.release()
	if err == nil || !strings.Contains(err.Error(), "connect") {
		t.Fatalf("migrate to an impostor agent: err = %v, want a connect failure", err)
	}
	if after := f.LB().Placements("idx"); len(after) != 1 || after[0] != pl {
		t.Fatalf("placements after failed connect: %+v", after)
	}
	if bs := f.Blackouts(); len(bs) != 0 {
		t.Fatalf("failed connect recorded blackouts %v", bs)
	}
	if _, err := f.Serve([]string{"idx"}, 40, 1); err != nil {
		t.Fatal(err)
	}
}

// TestServeOneAllocations pins the heap objects of one routed request —
// pick, core rotation, Call, RunCore, reply check — with runtime
// verification attached: none, once the trace rings have grown.
func TestServeOneAllocations(t *testing.T) {
	f := newTestFleet(t, 2)
	if err := f.Deploy(ServiceSpec{Name: "idx", Delta: 31}, 2); err != nil {
		t.Fatal(err)
	}
	var retries uint64
	arg := uint32(0)
	request := func() {
		arg++
		if err := f.serveOne("idx", arg, &retries); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*trace.DefaultRingEntries; i++ {
		request()
	}
	if allocs := testing.AllocsPerRun(200, request); allocs != 0 {
		t.Fatalf("one served request allocates %.0f objects, pinned at 0", allocs)
	}
}

func TestFleetKillDuringServing(t *testing.T) {
	f := newTestFleet(t, 3)
	if err := f.Deploy(ServiceSpec{Name: "alpha", Delta: 5}, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(ServiceSpec{Name: "beta", Delta: 600}, 2); err != nil {
		t.Fatal(err)
	}
	// Pick a victim that hosts something and kill it early in the run.
	victim := -1
	for i := range f.Nodes {
		if f.LB().NodeCount(i) > 0 {
			victim = i
			break
		}
	}
	f.ArmKill(victim, 2000)
	stats, err := f.Serve([]string{"alpha", "beta"}, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests != 600 {
		t.Fatalf("served %d, want 600 (every request must complete despite the kill)", stats.Requests)
	}
	if stats.NodeKills != 1 || !f.Nodes[victim].Failed() {
		t.Fatalf("node kills = %d (victim failed=%v), want the armed node dead",
			stats.NodeKills, f.Nodes[victim].Failed())
	}
	if stats.Retries == 0 {
		t.Fatal("kill mid-serving should have forced retries")
	}
	// Every service still has at least one live replica, none on the
	// dead node.
	for _, svc := range []string{"alpha", "beta"} {
		hosts := f.LB().ReplicaNodes(svc)
		if len(hosts) == 0 {
			t.Fatalf("%s has no live replica after the kill", svc)
		}
		if hosts[victim] {
			t.Fatalf("%s still routed to the dead node", svc)
		}
	}
	if err := f.Err(); err != nil {
		t.Fatalf("control-plane error: %v", err)
	}
	auditClean(t, f)
}

// TestFleetServeDuringMigration races the serving loop against live
// migrations (the CI race leg's target).
func TestFleetServeDuringMigration(t *testing.T) {
	f := newTestFleet(t, 3)
	if err := f.Deploy(ServiceSpec{Name: "alpha", Delta: 21}, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(ServiceSpec{Name: "beta", Delta: 4000}, 2); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var serveErr error
	var stats ServeStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		stats, serveErr = f.Serve([]string{"alpha", "beta"}, 400, 1)
	}()
	// Chase "alpha" around the fleet while requests are in flight.
	migrations := 0
	for hop := 0; hop < 3; hop++ {
		pls := f.LB().Placements("alpha")
		if len(pls) == 0 {
			break
		}
		pl := pls[0]
		to := -1
		hosts := f.LB().ReplicaNodes("alpha")
		for i := range f.Nodes {
			if i != pl.Node && !hosts[i] && !f.Nodes[i].Failed() {
				to = i
				break
			}
		}
		if to < 0 {
			break
		}
		if err := f.Migrate("alpha", pl.Node, to, nil); err != nil {
			t.Errorf("hop %d: %v", hop, err)
			break
		}
		migrations++
	}
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("serving failed during migration: %v", serveErr)
	}
	if stats.Requests != 400 {
		t.Fatalf("served %d, want 400", stats.Requests)
	}
	if migrations == 0 {
		t.Fatal("no migration completed")
	}
	// Four initial admissions plus one restore per migration.
	s := f.Stats()
	if s.MigrationsOut != uint64(migrations) || s.MigrationsIn != uint64(4+migrations) {
		t.Fatalf("migration counters out=%d in=%d, want %d/%d",
			s.MigrationsOut, s.MigrationsIn, migrations, 4+migrations)
	}
	auditClean(t, f)
}

// TestFleetVerifierFlagsSeededNode seeds a violation on exactly one
// node and requires the fleet verifier to localize it there.
func TestFleetVerifierFlagsSeededNode(t *testing.T) {
	f := newTestFleet(t, 3)
	if err := f.Deploy(ServiceSpec{Name: "alpha", Delta: 1}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Serve([]string{"alpha"}, 80, 1); err != nil {
		t.Fatal(err)
	}
	const seeded = 1
	if err := f.SeedViolation(seeded); err != nil {
		t.Fatal(err)
	}
	audits, err := f.Audit()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range audits {
		if a.Node == f.Nodes[seeded].Name {
			if a.SelfErr == nil || !strings.Contains(a.SelfErr.Error(), "dead domain") {
				t.Errorf("seeded node self-verdict = %v, want dead-domain violation", a.SelfErr)
			}
			found := false
			for _, flag := range a.Flags {
				if strings.Contains(flag, "dead domain") {
					found = true
				}
			}
			if !found {
				t.Errorf("fleet verifier did not flag the seeded node: %v", a.Flags)
			}
			continue
		}
		if a.SelfErr != nil || len(a.Flags) != 0 {
			t.Errorf("innocent %s flagged: self=%v flags=%v", a.Node, a.SelfErr, a.Flags)
		}
	}
}

// TestDigestWithoutChannelFailsClosed: a digest with no channel to
// cross is refused rather than held, and the node's service latches
// the refusal as its verdict.
func TestDigestWithoutChannelFailsClosed(t *testing.T) {
	f := newTestFleet(t, 1)
	n := f.Nodes[0]
	n.mu.Lock()
	n.conn = nil
	n.mu.Unlock()
	if err := n.SVC.Finalize(); err == nil || !strings.Contains(err.Error(), "no digest channel") {
		t.Fatalf("Finalize = %v, want the refused digest latched", err)
	}
}

// fleetRun is what one seeded fleet run leaves behind: everything a
// second run from the same seed must reproduce exactly.
type fleetRun struct {
	Serve      [2]ServeStats
	Placements []string // service@node:domain, in load-balancer order
	Nodes      []core.Stats
	Blackouts  int
	Digests    []uint64 // per node, consumed by the control plane
	Heads      []string // per node, the hash of its last digest
}

// reproRun boots a 4-node fleet, arms a machine check on a node that
// hosts replicas, serves through the kill, live-migrates "alpha" to a
// surviving node that does not host it, serves again and audits.
func reproRun(t *testing.T) fleetRun {
	t.Helper()
	f := newTestFleet(t, 4)
	for _, spec := range []ServiceSpec{{Name: "alpha", Delta: 5}, {Name: "beta", Delta: 600}} {
		if err := f.Deploy(spec, 2); err != nil {
			t.Fatal(err)
		}
	}
	victim := -1
	for i := range f.Nodes {
		if f.LB().NodeCount(i) > 0 {
			victim = i
			break
		}
	}
	f.ArmKill(victim, 2000)
	services := []string{"alpha", "beta"}
	var r fleetRun
	var err error
	if r.Serve[0], err = f.Serve(services, 600, 4); err != nil {
		t.Fatal(err)
	}
	if r.Serve[0].NodeKills != 1 {
		t.Fatalf("node kills = %d, want the armed node dead", r.Serve[0].NodeKills)
	}
	pl := f.LB().Placements("alpha")[0]
	hosts := f.LB().ReplicaNodes("alpha")
	to := -1
	for i, n := range f.Nodes {
		if !hosts[i] && !n.Failed() {
			to = i
			break
		}
	}
	if err := f.Migrate("alpha", pl.Node, to, nil); err != nil {
		t.Fatal(err)
	}
	if r.Serve[1], err = f.Serve(services, 600, 4); err != nil {
		t.Fatal(err)
	}
	auditClean(t, f)
	for _, svc := range services {
		for _, p := range f.LB().Placements(svc) {
			r.Placements = append(r.Placements, fmt.Sprintf("%s@%d:%d", svc, p.Node, p.Dom))
		}
	}
	for i, n := range f.Nodes {
		r.Nodes = append(r.Nodes, n.Mon.Stats())
		r.Digests = append(r.Digests, f.vers[i].Digests())
		r.Heads = append(r.Heads, f.vers[i].Head())
	}
	r.Blackouts = len(f.Blackouts())
	return r
}

// TestServeReproducible: Serve runs every request on its caller's
// goroutine in a fixed order, so a fleet is a function of its seed —
// through a node kill mid-serving and a live migration, at any host
// thread count: two runs each at the ambient GOMAXPROCS, 1 and 4 must
// all agree. Serve ignores its workers argument; asking for four shows
// no caller can get a host-thread fan-out back.
func TestServeReproducible(t *testing.T) {
	ambient := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(ambient)
	var first *fleetRun
	for _, procs := range []int{ambient, 1, 4} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 2; run++ {
			got := reproRun(t)
			if first == nil {
				first = &got
				continue
			}
			if !reflect.DeepEqual(got, *first) {
				t.Fatalf("GOMAXPROCS=%d run %d differs from the first run:\n got %+v\nwant %+v", procs, run, got, *first)
			}
		}
	}
}

// Stats aggregates migration counters fleet-wide.
func (f *Fleet) Stats() core.Stats {
	var out core.Stats
	for _, n := range f.Nodes {
		s := n.Mon.Stats()
		out.MigrationsIn += s.MigrationsIn
		out.MigrationsOut += s.MigrationsOut
	}
	return out
}
