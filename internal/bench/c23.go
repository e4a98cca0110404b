package bench

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/tyche-sim/tyche/internal/dist"
	"github.com/tyche-sim/tyche/internal/fault"
	"github.com/tyche-sim/tyche/internal/fleet"
)

func init() {
	register(Experiment{
		ID:    "C23",
		Title: "Datacenter fleet: serving scaling, attested live migration, kill churn, fleet-wide verification",
		Paper: "§5 the monitor as the unit a confidential cloud is built from (journal version: managing trust in the cloud)",
		Gates: []Gate{
			{"{scale}-complete", "{scale}_requests / {scale}_offered", eq(1), "every request is served with its tenant's transform"},
			{"{scale}-complete", "{scale}_node_kills", eq(0), "and no node fails"},
			{"{audited}-audit-clean", "{audited}_unclean_nodes", eq(0), "every innocent node's verdict and digest chain stay clean"},
			{"migrate-blackouts", "blackout_count / migrate_hops", eq(1), "every live migration records its blackout"},
			{"migrate-drop-aborts", "migrate_drop_link_lost", eq(1), "a dropped migration frame aborts with ErrLinkLost"},
			{"migrate-drop-aborts", "migrate_dropped_frames", eq(1), "after exactly one drop"},
			{"migrate-tamper-aborts", "migrate_tamper_rejected", eq(1), "a tampered payload aborts with ErrTampered"},
			{"migrate-abort-clean", "migrate_source_kept", eq(1), "aborted migrations leave the source serving"},
			{"migrate-abort-clean", "migrate_target_domains_added", eq(0), "and no half-state on the target"},
			{"churn-drains", "churn_requests / churn_offered", eq(1), "every request completes despite a node kill"},
			{"churn-kill-fired", "churn_node_kills", eq(1), "the armed machine check kills one node"},
			{"churn-kill-fired", "churn_victim_failed", eq(1), "the one it was armed on"},
			{"churn-replaced", "churn_unreplaced_services", eq(0), "every service keeps live replicas, none on the dead node"},
			{"churn-replaced", "churn_control_plane_errors", eq(0), "with no control-plane error"},
			{"verify-audit-flagged", "verify_seeded_flagged", eq(1), "the seeded node is flagged by its own verifier and the fleet's chain audit"},
		},
	}, runC23)
}

// runC23 exercises the internal/fleet control plane in four phases:
//
//	scale   — identical confidential-SaaS fleets of 2, 4, and 8 nodes
//	          serve the same load-balanced request stream. Serving
//	          throughput against machine count is not claimed:
//	          fleet.Serve runs every request on its caller's
//	          goroutine, so more nodes add capacity, not host threads.
//	migrate — a service is live-migrated around a 3-node fleet over
//	          attested dist.Conn channels (a blackout's length is host
//	          time: fleet.blackout_p99_us in benchmark/), then one
//	          migration loses a frame and one is tampered with.
//	churn   — a node is killed by the fault injector mid-serving; a
//	          wrong reply fails the serve loop as a cross-tenant leak.
//	          The retried-request count is a function of the seed, as
//	          every metric here is.
//	verify  — fleet-wide RV aggregation: per-node hash-chained digests
//	          ship to control-plane RemoteVerifiers, and a violation is
//	          seeded on exactly one node.
//
// Fleet nodes attach the always-on rv.Service (that is the subsystem
// under test) and boot no bench world, so this experiment carries no
// trace-oracle row.
func runC23(cfg Config, res *Result) error {
	res.Columns = []string{"phase", "nodes", "requests", "detail"}

	// Phase A: the same request stream over growing fleets.
	scaleReqs := 12000
	spin := 0 // default (200)
	if cfg.Quick {
		scaleReqs, spin = 1200, 25
	}
	for _, nodes := range []int{2, 4, 8} {
		f, err := newC23Fleet(cfg, nodes, spin)
		if err != nil {
			return fmt.Errorf("c23 scale n%d: %w", nodes, err)
		}
		// Every node hosts a replica of both tenants, so capacity — not
		// placement — is what changes across the sweep.
		for s, spec := range c23Services {
			if err := f.Deploy(spec, nodes); err != nil {
				return fmt.Errorf("c23 scale n%d deploy %d: %w", nodes, s, err)
			}
		}
		stats, err := f.Serve(c23ServiceNames, scaleReqs, 1)
		if err != nil {
			return fmt.Errorf("c23 scale n%d serve: %w", nodes, err)
		}
		tag := fmt.Sprintf("scale_n%d", nodes)
		res.row("scale", fmt.Sprintf("%d", nodes), fmtU(stats.Requests), "-")
		res.sweep("scale", tag)
		res.metric(tag+"_requests", float64(stats.Requests))
		res.metric(tag+"_offered", float64(scaleReqs))
		res.metric(tag+"_node_kills", float64(stats.NodeKills))
		if err := c23Audit(res, tag, f, -1); err != nil {
			return err
		}
	}
	// Phase B: attested live migration and fault-injected aborts.
	hops := 12
	if cfg.Quick {
		hops = 4
	}
	fm, err := newC23Fleet(cfg, 3, spin)
	if err != nil {
		return fmt.Errorf("c23 migrate: %w", err)
	}
	if err := fm.Deploy(fleet.ServiceSpec{Name: "pay", Delta: 777}, 1); err != nil {
		return fmt.Errorf("c23 migrate deploy: %w", err)
	}
	if _, err := fm.Serve([]string{"pay"}, 100, 1); err != nil {
		return fmt.Errorf("c23 migrate warmup: %w", err)
	}
	for hop := 0; hop < hops; hop++ {
		pl := fm.LB().Placements("pay")[0]
		if err := fm.Migrate("pay", pl.Node, (pl.Node+1)%3, nil); err != nil {
			return fmt.Errorf("c23 migrate hop %d: %w", hop, err)
		}
	}
	res.metric("blackout_count", float64(len(fm.Blackouts())))
	res.metric("migrate_hops", float64(hops))
	res.row("migrate", "3", fmtU(uint64(hops)), fmt.Sprintf("%d blackouts recorded", len(fm.Blackouts())))

	// Fault-injected aborts on the same fleet: a dropped frame and a
	// tampered payload must both fail closed.
	pl := fm.LB().Placements("pay")[0]
	to := (pl.Node + 1) % 3
	targetDomains := len(fm.Nodes[to].Mon.Domains())
	wire := &dist.Wire{}
	wire.Arm([]fault.Fault{{Kind: fault.LinkDrop}})
	errDrop := fm.Migrate("pay", pl.Node, to, wire)
	res.metric("migrate_drop_link_lost", bit(errors.Is(errDrop, dist.ErrLinkLost)))
	res.metric("migrate_dropped_frames", float64(wire.Dropped))
	wire = &dist.Wire{}
	wire.Corrupt = func(frame []byte) []byte { frame[len(frame)/2] ^= 0x01; return frame }
	errTamper := fm.Migrate("pay", pl.Node, to, wire)
	res.metric("migrate_tamper_rejected", bit(errors.Is(errTamper, dist.ErrTampered)))
	res.note("aborted migrations: drop %v; tamper %v", errDrop, errTamper)
	after := fm.LB().Placements("pay")
	res.metric("migrate_source_kept", bit(len(after) == 1 && after[0].Node == pl.Node && after[0].Dom == pl.Dom))
	res.metric("migrate_target_domains_added", float64(len(fm.Nodes[to].Mon.Domains())-targetDomains))
	if _, err := fm.Serve([]string{"pay"}, 100, 1); err != nil {
		return fmt.Errorf("c23 migrate post-abort serve: %w", err)
	}
	if err := c23Audit(res, "migrate", fm, -1); err != nil {
		return err
	}

	// Phase C: node kill mid-serving.
	churnReqs := 20000
	if cfg.Quick {
		churnReqs = 1000
	}
	fc, err := newC23Fleet(cfg, 4, spin)
	if err != nil {
		return fmt.Errorf("c23 churn: %w", err)
	}
	for _, spec := range c23Services {
		if err := fc.Deploy(spec, 2); err != nil {
			return fmt.Errorf("c23 churn deploy: %w", err)
		}
	}
	victim := -1
	for i := range fc.Nodes {
		if fc.LB().NodeCount(i) > 0 {
			victim = i
			break
		}
	}
	fc.ArmKill(victim, 2000)
	stats, err := fc.Serve(c23ServiceNames, churnReqs, 1)
	if err != nil {
		return fmt.Errorf("c23 churn serve: %w", err)
	}
	res.metric("churn_requests", float64(stats.Requests))
	res.metric("churn_retries", float64(stats.Retries))
	res.metric("churn_node_kills", float64(stats.NodeKills))
	res.metric("churn_offered", float64(churnReqs))
	res.metric("churn_victim_failed", bit(fc.Nodes[victim].Failed()))
	unreplaced := 0
	for _, svc := range c23ServiceNames {
		hosts := fc.LB().ReplicaNodes(svc)
		unreplaced += int(bit(len(hosts) == 0 || hosts[victim]))
	}
	res.metric("churn_unreplaced_services", float64(unreplaced))
	res.metric("churn_control_plane_errors", bit(fc.Err() != nil))
	res.row("churn", "4", fmtU(stats.Requests),
		fmt.Sprintf("%d retried, %d node killed", stats.Retries, stats.NodeKills))
	if err := c23Audit(res, "churn", fc, -1); err != nil {
		return err
	}

	// Phase D: fleet-wide verification localizes a seeded violation.
	fv, err := newC23Fleet(cfg, 3, spin)
	if err != nil {
		return fmt.Errorf("c23 verify: %w", err)
	}
	if err := fv.Deploy(fleet.ServiceSpec{Name: "audit", Delta: 1}, 2); err != nil {
		return fmt.Errorf("c23 verify deploy: %w", err)
	}
	if _, err := fv.Serve([]string{"audit"}, 100, 1); err != nil {
		return fmt.Errorf("c23 verify serve: %w", err)
	}
	const seeded = 1
	if err := fv.SeedViolation(seeded); err != nil {
		return fmt.Errorf("c23 verify seed: %w", err)
	}
	if err := c23Audit(res, "verify", fv, seeded); err != nil {
		return err
	}
	res.row("verify", "3", "100", fmt.Sprintf("violation seeded on node %d", seeded))
	return nil
}

// newC23Fleet boots a fleet sized for the benchmark: 3 cores per node
// (2 tenant-serving workers + the agent core) and a per-phase spin.
func newC23Fleet(cfg Config, nodes, spin int) (*fleet.Fleet, error) {
	return fleet.New(fleet.Config{
		Nodes:        nodes,
		CoresPerNode: 3,
		MemBytes:     16 << 20,
		Backend:      cfg.Backend,
		Seed:         cfg.Seed,
		Spin:         spin,
	})
}

// c23Services is the two-tenant workload every phase serves: distinct
// per-tenant transforms, so a cross-tenant mixup is observable in the
// reply.
var (
	c23Services     = []fleet.ServiceSpec{{Name: "alpha", Delta: 101}, {Name: "beta", Delta: 9091}}
	c23ServiceNames = []string{"alpha", "beta"}
)

// c23Audit reports a fleet's final verification audit under tag: how
// many nodes other than seeded are not clean (a self-verdict, a flag or
// fewer than two digests), and with seeded >= 0 whether that node is
// flagged by both its self-verdict and the fleet-level chain audit. An
// audit that cannot run is an experiment error.
func c23Audit(res *Result, tag string, f *fleet.Fleet, seeded int) error {
	audits, err := f.Audit()
	if err != nil {
		return fmt.Errorf("c23 %s audit: %w", tag, err)
	}
	unclean := 0
	for _, a := range audits {
		if seeded >= 0 && a.Node == f.Nodes[seeded].Name {
			selfHit := a.SelfErr != nil && strings.Contains(a.SelfErr.Error(), "dead domain")
			fleetHit := slices.ContainsFunc(a.Flags, func(s string) bool { return strings.Contains(s, "dead domain") })
			res.metric(tag+"_seeded_flagged", bit(selfHit && fleetHit))
			continue
		}
		if a.SelfErr != nil || len(a.Flags) != 0 || a.Digests < 2 {
			unclean++
			res.note("%s: %s self=%v flags=%v digests=%d", tag, a.Node, a.SelfErr, a.Flags, a.Digests)
		}
	}
	res.sweep("audited", tag)
	res.metric(tag+"_unclean_nodes", float64(unclean))
	return nil
}
