package fleet

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
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
// returns at once with the placement never deregistered. Two replicas
// tell "never frozen" from "frozen and re-registered": a re-registered
// source would lose its round-robin position, and a snapshot would
// count as a migration out.
func TestFleetMigrateConnectsBeforeFreeze(t *testing.T) {
	f := newTestFleet(t, 3)
	if err := f.Deploy(ServiceSpec{Name: "idx", Delta: 31}, 2); err != nil {
		t.Fatal(err)
	}
	before := f.LB().Placements("idx")
	from := before[0].Node
	to := 3 - before[0].Node - before[1].Node // the node without a replica
	f.Nodes[to].AgentImg = image.NewProgram("impostor", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	out := f.Stats().MigrationsOut
	err := f.Migrate("idx", from, to, nil)
	if err == nil || !strings.Contains(err.Error(), "connect") {
		t.Fatalf("migrate to an impostor agent: err = %v, want a connect failure", err)
	}
	if after := f.LB().Placements("idx"); !reflect.DeepEqual(after, before) {
		t.Fatalf("placements after failed connect: %+v, want %+v in that order", after, before)
	}
	if got := f.Stats().MigrationsOut; got != out {
		t.Fatalf("failed connect snapshotted the source: MigrationsOut %d -> %d", out, got)
	}
	if bs := f.Blackouts(); len(bs) != 0 {
		t.Fatalf("failed connect recorded blackouts %v", bs)
	}
	if _, err := f.Serve([]string{"idx"}, 40, 1); err != nil {
		t.Fatal(err)
	}
}

// TestFleetMigrateRefusesHostingTarget: a hop onto the source itself,
// or onto another node that already hosts the service, returns at once
// with nothing frozen — the placements keep their round-robin order,
// no snapshot counts as a migration out and no blackout is recorded.
func TestFleetMigrateRefusesHostingTarget(t *testing.T) {
	f := newTestFleet(t, 3)
	if err := f.Deploy(ServiceSpec{Name: "idx", Delta: 31}, 2); err != nil {
		t.Fatal(err)
	}
	before := f.LB().Placements("idx")
	a, b := before[0].Node, before[1].Node
	out := f.Stats().MigrationsOut
	for _, hop := range [][2]int{{a, a}, {a, b}, {b, a}} {
		err := f.Migrate("idx", hop[0], hop[1], nil)
		if err == nil || !strings.Contains(err.Error(), "already hosts") {
			t.Fatalf("migrate %d->%d onto a node hosting the service: err = %v, want a refusal", hop[0], hop[1], err)
		}
		if after := f.LB().Placements("idx"); !reflect.DeepEqual(after, before) {
			t.Fatalf("placements after refused hop %d->%d: %+v, want %+v in that order", hop[0], hop[1], after, before)
		}
		if got := f.Stats().MigrationsOut; got != out {
			t.Fatalf("refused hop %d->%d snapshotted the source: MigrationsOut %d -> %d", hop[0], hop[1], out, got)
		}
	}
	if bs := f.Blackouts(); len(bs) != 0 {
		t.Fatalf("refused hops recorded blackouts %v", bs)
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

// TestFleetServeDuringMigration interleaves serving with live
// migrations on the fleet's one thread: "alpha" is chased around the
// fleet between Serve batches, and every request lands correctly.
func TestFleetServeDuringMigration(t *testing.T) {
	f := newTestFleet(t, 3)
	if err := f.Deploy(ServiceSpec{Name: "alpha", Delta: 21}, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Deploy(ServiceSpec{Name: "beta", Delta: 4000}, 2); err != nil {
		t.Fatal(err)
	}
	serve := func() {
		t.Helper()
		stats, err := f.Serve([]string{"alpha", "beta"}, 100, 1)
		if err != nil {
			t.Fatalf("serving failed between migrations: %v", err)
		}
		if stats.Requests != 100 {
			t.Fatalf("served %d, want 100", stats.Requests)
		}
	}
	serve()
	migrations := 0
	for hop := 0; hop < 3; hop++ {
		pl := f.LB().Placements("alpha")[0]
		hosts := f.LB().ReplicaNodes("alpha")
		to := -1
		for i := range f.Nodes {
			if !hosts[i] {
				to = i
				break
			}
		}
		if err := f.Migrate("alpha", pl.Node, to, nil); err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		migrations++
		serve()
	}
	// Four initial admissions plus one restore per migration.
	s := f.Stats()
	if s.MigrationsOut != uint64(migrations) || s.MigrationsIn != uint64(4+migrations) {
		t.Fatalf("migration counters out=%d in=%d, want %d/%d",
			s.MigrationsOut, s.MigrationsIn, migrations, 4+migrations)
	}
	auditClean(t, f)
}

// TestFailNodeReplacesDeterministically: node death re-places the lost
// services by name, so which survivor takes which is fixed by the
// fleet's history, not by map order. Node 0 hosts every fifth of 40
// services; the four survivors, equally loaded, take them in turn.
func TestFailNodeReplacesDeterministically(t *testing.T) {
	f := newTestFleet(t, 5)
	var names []string
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("s%02d", i)
		names = append(names, name)
		if err := f.Deploy(ServiceSpec{Name: name, Delta: uint32(i + 1)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	f.FailNode(0)
	var moved []string
	for i, name := range names {
		pls := f.LB().Placements(name)
		if len(pls) != 1 {
			t.Fatalf("%s has %d placements after the kill, want 1", name, len(pls))
		}
		if i%5 == 0 {
			moved = append(moved, fmt.Sprintf("%s@%d", name, pls[0].Node))
		} else if pls[0].Node != i%5 {
			t.Fatalf("%s moved from node%d to node%d, but node%d survived", name, i%5, pls[0].Node, i%5)
		}
	}
	got := strings.Join(moved, " ")
	if want := "s00@1 s05@2 s10@3 s15@4 s20@1 s25@2 s30@3 s35@4"; got != want {
		t.Fatalf("node0's services re-placed as %s, want %s", got, want)
	}
	if err := f.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestServeRefusesWhatItCannotRoute: a name with no deployed service is
// refused before anything runs, and a deployed service with no replica
// left fails on its first pick, with no retry.
func TestServeRefusesWhatItCannotRoute(t *testing.T) {
	f := newTestFleet(t, 2)
	if err := f.Deploy(ServiceSpec{Name: "idx", Delta: 31}, 1); err != nil {
		t.Fatal(err)
	}
	before := f.Nodes[0].Mon.Stats()
	stats, err := f.Serve([]string{"idx", "nosuch"}, 10, 1)
	if err == nil || !strings.Contains(err.Error(), `unknown service "nosuch"`) || stats != (ServeStats{}) {
		t.Fatalf("Serve naming an undeployed service = %+v, %v; want it refused", stats, err)
	}
	if after := f.Nodes[0].Mon.Stats(); after != before {
		t.Fatalf("the refused Serve changed node0: %+v -> %+v", before, after)
	}
	f.LB().Deregister(f.LB().Placements("idx")[0])
	stats, err = f.Serve([]string{"idx"}, 10, 1)
	if err == nil || !strings.Contains(err.Error(), "no live replica") || stats != (ServeStats{}) {
		t.Fatalf("Serve with no replica left = %+v, %v; want a failed first pick", stats, err)
	}
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
	n.conn = nil
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
