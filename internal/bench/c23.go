package bench

import (
	"errors"
	"fmt"
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
		Run:   runC23,
	})
}

// runC23 exercises the internal/fleet control plane in four phases:
//
//	scale   — identical confidential-SaaS fleets of 2, 4, and 8 nodes
//	          serve the same load-balanced request stream. Gates: every
//	          request completes with the correct per-tenant transform
//	          and every node audits clean at every fleet size. Serving
//	          throughput against machine count is not claimed here — a
//	          fleet's nodes execute on host threads, and no host this
//	          repository has run on has shown the speedup;
//	          fleet.scaling_2c in benchmark/ is the host figure.
//	migrate — a service is live-migrated around a 3-node fleet over
//	          attested dist.Conn channels. Gates: every migration
//	          records its blackout (its length is host time:
//	          fleet.blackout_p99_us in benchmark/); a deterministically
//	          dropped migration frame aborts with ErrLinkLost and a
//	          tampered payload with ErrTampered, both leaving the
//	          source serving and the target without half-state.
//	churn   — a node is killed by the fault injector mid-serving.
//	          Gates: every in-flight and subsequent request completes
//	          with the correct per-tenant transform (a wrong reply
//	          fails the serve loop as a cross-tenant leak), the dead
//	          node's domains re-place onto survivors, and every node's
//	          runtime-verification verdict stays clean.
//	verify  — fleet-wide RV aggregation: per-node hash-chained digests
//	          ship to control-plane RemoteVerifiers; a violation seeded
//	          on exactly one node must be flagged there — and only
//	          there — by the fleet-level audit.
//
// Fleet nodes attach the always-on rv.Service unconditionally (that is
// the subsystem under test), so Config.Trace/Verify do not change what
// this experiment verifies.
func runC23(cfg Config) (*Result, error) {
	res := &Result{
		ID: "C23", Title: "Datacenter fleet (scaling / live migration / kill churn / fleet verification)",
		Columns: []string{"phase", "nodes", "requests", "detail"},
	}

	// Phase A: the same request stream over growing fleets.
	scaleReqs := 12000
	spin := 0 // default (200)
	if cfg.Quick {
		scaleReqs, spin = 1200, 25
	}
	for _, nodes := range []int{2, 4, 8} {
		f, err := newC23Fleet(cfg, nodes, spin)
		if err != nil {
			return nil, fmt.Errorf("c23 scale n%d: %w", nodes, err)
		}
		// Every node hosts a replica of both tenants, so capacity — not
		// placement — is what changes across the sweep.
		for s, spec := range c23Services {
			if err := f.Deploy(spec, nodes); err != nil {
				return nil, fmt.Errorf("c23 scale n%d deploy %d: %w", nodes, s, err)
			}
		}
		stats, err := f.Serve(c23ServiceNames, scaleReqs, 2*nodes)
		if err != nil {
			return nil, fmt.Errorf("c23 scale n%d serve: %w", nodes, err)
		}
		tag := fmt.Sprintf("scale_n%d", nodes)
		res.row("scale", fmt.Sprintf("%d", nodes), fmtU(stats.Requests), "-")
		res.metric(tag+"_requests", float64(stats.Requests))
		res.check(tag+"-complete", stats.Requests == uint64(scaleReqs) && stats.NodeKills == 0,
			"%d/%d requests served with correct per-tenant transforms, no node failures", stats.Requests, scaleReqs)
		c23Audit(res, tag, f, -1)
	}
	// Phase B: attested live migration and fault-injected aborts.
	hops := 12
	if cfg.Quick {
		hops = 4
	}
	fm, err := newC23Fleet(cfg, 3, spin)
	if err != nil {
		return nil, fmt.Errorf("c23 migrate: %w", err)
	}
	if err := fm.Deploy(fleet.ServiceSpec{Name: "pay", Delta: 777}, 1); err != nil {
		return nil, fmt.Errorf("c23 migrate deploy: %w", err)
	}
	if _, err := fm.Serve([]string{"pay"}, 100, 2); err != nil {
		return nil, fmt.Errorf("c23 migrate warmup: %w", err)
	}
	for hop := 0; hop < hops; hop++ {
		pl := fm.LB().Placements("pay")[0]
		if err := fm.Migrate("pay", pl.Node, (pl.Node+1)%3, nil); err != nil {
			return nil, fmt.Errorf("c23 migrate hop %d: %w", hop, err)
		}
	}
	res.metric("blackout_count", float64(len(fm.Blackouts())))
	res.check("migrate-blackouts", len(fm.Blackouts()) == hops,
		"every migration's blackout measured: %d/%d", len(fm.Blackouts()), hops)
	res.row("migrate", "3", fmtU(uint64(hops)), fmt.Sprintf("%d blackouts recorded", len(fm.Blackouts())))

	// Fault-injected aborts on the same fleet: a dropped frame and a
	// tampered payload must both fail closed.
	pl := fm.LB().Placements("pay")[0]
	to := (pl.Node + 1) % 3
	targetDomains := len(fm.Nodes[to].Mon.Domains())
	wire := &dist.Wire{}
	wire.Arm([]fault.Fault{{Kind: fault.LinkDrop}})
	errDrop := fm.Migrate("pay", pl.Node, to, wire)
	res.check("migrate-drop-aborts", errors.Is(errDrop, dist.ErrLinkLost) && wire.Dropped == 1,
		"dropped migration frame aborts with ErrLinkLost (got %v, %d dropped)", errDrop, wire.Dropped)
	wire = &dist.Wire{}
	wire.Corrupt = func(frame []byte) []byte { frame[len(frame)/2] ^= 0x01; return frame }
	errTamper := fm.Migrate("pay", pl.Node, to, wire)
	res.check("migrate-tamper-aborts", errors.Is(errTamper, dist.ErrTampered),
		"tampered migration payload rejected end-to-end with ErrTampered (got %v)", errTamper)
	after := fm.LB().Placements("pay")
	res.check("migrate-abort-clean",
		len(after) == 1 && after[0].Node == pl.Node && after[0].Dom == pl.Dom &&
			len(fm.Nodes[to].Mon.Domains()) == targetDomains,
		"aborted migrations left the source serving and no half-state on the target")
	if _, err := fm.Serve([]string{"pay"}, 100, 2); err != nil {
		return nil, fmt.Errorf("c23 migrate post-abort serve: %w", err)
	}
	c23Audit(res, "migrate", fm, -1)

	// Phase C: node kill mid-serving.
	churnReqs := 20000
	if cfg.Quick {
		churnReqs = 1000
	}
	fc, err := newC23Fleet(cfg, 4, spin)
	if err != nil {
		return nil, fmt.Errorf("c23 churn: %w", err)
	}
	for _, spec := range c23Services {
		if err := fc.Deploy(spec, 2); err != nil {
			return nil, fmt.Errorf("c23 churn deploy: %w", err)
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
	stats, err := fc.Serve(c23ServiceNames, churnReqs, 4)
	if err != nil {
		return nil, fmt.Errorf("c23 churn serve: %w", err)
	}
	res.metric("churn_requests", float64(stats.Requests))
	res.metric("churn_retries", float64(stats.Retries))
	res.metric("churn_node_kills", float64(stats.NodeKills))
	res.check("churn-drains", stats.Requests == uint64(churnReqs),
		"%d/%d requests completed with correct per-tenant transforms despite the kill (%d retried)",
		stats.Requests, churnReqs, stats.Retries)
	res.check("churn-kill-fired", stats.NodeKills == 1 && fc.Nodes[victim].Failed(),
		"the armed machine-check killed node %d mid-serving (kills=%d)", victim, stats.NodeKills)
	replaced := true
	detail := "every service has live replicas, none routed to the dead node"
	for _, svc := range c23ServiceNames {
		hosts := fc.LB().ReplicaNodes(svc)
		if len(hosts) == 0 || hosts[victim] {
			replaced, detail = false, fmt.Sprintf("%s: hosts=%v (victim %d)", svc, hosts, victim)
		}
	}
	res.check("churn-replaced", replaced && fc.Err() == nil, "%s (control-plane err: %v)", detail, fc.Err())
	res.row("churn", "4", fmtU(stats.Requests),
		fmt.Sprintf("%d retried, %d node killed", stats.Retries, stats.NodeKills))
	c23Audit(res, "churn", fc, -1)

	// Phase D: fleet-wide verification localizes a seeded violation.
	fv, err := newC23Fleet(cfg, 3, spin)
	if err != nil {
		return nil, fmt.Errorf("c23 verify: %w", err)
	}
	if err := fv.Deploy(fleet.ServiceSpec{Name: "audit", Delta: 1}, 2); err != nil {
		return nil, fmt.Errorf("c23 verify deploy: %w", err)
	}
	if _, err := fv.Serve([]string{"audit"}, 100, 2); err != nil {
		return nil, fmt.Errorf("c23 verify serve: %w", err)
	}
	const seeded = 1
	if err := fv.SeedViolation(seeded); err != nil {
		return nil, fmt.Errorf("c23 verify seed: %w", err)
	}
	c23Audit(res, "verify", fv, seeded)
	res.row("verify", "3", "100", fmt.Sprintf("violation seeded on node %d", seeded))

	return res, nil
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

// c23Audit folds a fleet's final verification audit into checks. With
// seeded >= 0 that node must be flagged (self-verdict and fleet-level
// chain audit both reporting the violation) while every other node
// stays clean; with seeded < 0 all nodes must be clean.
func c23Audit(res *Result, tag string, f *fleet.Fleet, seeded int) {
	audits, err := f.Audit()
	if err != nil {
		res.check(tag+"-audit", false, "fleet audit: %v", err)
		return
	}
	clean, detail := true, fmt.Sprintf("%d nodes, all verdicts clean, digests aggregated", len(audits))
	flagged := false
	var flaggedDetail string
	for i, a := range audits {
		if seeded >= 0 && a.Node == f.Nodes[seeded].Name {
			selfHit := a.SelfErr != nil && strings.Contains(a.SelfErr.Error(), "dead domain")
			fleetHit := false
			for _, flag := range a.Flags {
				if strings.Contains(flag, "dead domain") {
					fleetHit = true
				}
			}
			flagged = selfHit && fleetHit
			flaggedDetail = fmt.Sprintf("node %d self=%v flags=%v", i, a.SelfErr, a.Flags)
			continue
		}
		if a.SelfErr != nil || len(a.Flags) != 0 || a.Digests < 2 {
			clean = false
			detail = fmt.Sprintf("%s: self=%v flags=%v digests=%d", a.Node, a.SelfErr, a.Flags, a.Digests)
		}
	}
	res.check(tag+"-audit-clean", clean, "%s", detail)
	if seeded >= 0 {
		res.check(tag+"-audit-flagged", flagged,
			"seeded node flagged by both its own verifier and the fleet-level chain audit: %s", flaggedDetail)
	}
}
