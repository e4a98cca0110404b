package main

import (
	"fmt"
	"math"
)

// metric is one reported number. Every name below appears once in
// BENCHMARK.json with the same unit; bench_test.go holds the two lists
// to each other.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the system sees, from an untraced
// run. Times are host time; sim_cycles_per_op is simulated.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"sim_cycles_per_op", "cycles"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"live_heap_mb", "MiB"},
}

// perLayerMetrics come from a traced run. The first group is read from
// the run's own workload; every other metric is a property of one layer
// and is always measured where that layer is exercised — in a pass over
// the workload named in the comment, or in a standalone probe.
var perLayerMetrics = []metricDef{
	// The run's own workload: public counters per op, and where the
	// traced ops' wall time went.
	{"hw.instr_per_op", "count"},
	{"hw.cycles_per_instr", "ratio"},
	{"hw.tlb_miss_ratio", "ratio"},
	{"hw.mru_hit_ratio", "ratio"},
	{"hw.tlb_flushes_per_op", "count"},
	{"core.vmexits_per_op", "count"},
	{"core.transitions_per_op", "count"},
	{"core.transcache_hit_ratio", "ratio"},
	{"core.epoch_syncs_per_op", "count"},
	{"core.epoch_elided_ratio", "ratio"},
	{"core.denied_per_op", "count"},
	{"core.ring_shootdowns_per_op", "count"},
	{"core.ring_coalesced_per_flush", "count"},
	{"core.pages_scrubbed_per_op", "count"},
	{"core.lock_wait_pct", "%"},
	{"trace.events_per_op", "count"},
	{"trace.dropped_per_op", "count"},
	{"rv.digests_per_kop", "count"},
	{"fleet.retries_per_op", "count"},
	{"hw.op_share_pct", "%"},
	{"core.op_share_pct", "%"},
	{"libtyche.op_share_pct", "%"},
	{"fleet.op_share_pct", "%"},
	{"dist.op_share_pct", "%"},
	{"attest.op_share_pct", "%"},
	{"rv.op_share_pct", "%"},
	{"bench.op_share_pct", "%"},
	{"bench.op_p99_us", "us"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.slice_spread_pct", "%"},

	// node_request pass.
	{"hw.run_us", "us"},
	{"hw.instr_ns", "ns"},
	{"core.call_us", "us"},
	{"rv.pulse_us", "us"},
	// fleet_serve pass.
	{"fleet.serve_batch_ms", "ms"},
	{"fleet.overhead_us", "us"},
	{"fleet.scaling_2c", "ratio"},
	{"rv.audit_us", "us"},
	// cap_sync pass.
	{"core.share_us", "us"},
	{"core.revoke_us", "us"},
	{"libtyche.load_ms", "ms"},
	{"rv.finalize_us", "us"},
	// cap_ring pass.
	{"libtyche.enqueue_us", "us"},
	{"core.ring_flush_us", "us"},
	{"libtyche.reap_us", "us"},
	// migrate_hops pass.
	{"fleet.place_ms", "ms"},
	{"fleet.migrate_ms", "ms"},
	{"fleet.blackout_p50_us", "us"},
	{"fleet.blackout_p99_us", "us"},
	{"fleet.blackout_share", "ratio"},
	{"core.snapshot_us", "us"},
	{"fleet.json_encode_us", "us"},
	{"fleet.snapshot_bytes", "bytes"},
	{"dist.connect_us", "us"},
	{"dist.send_us", "us"},
	{"fleet.json_decode_us", "us"},
	{"core.restore_us", "us"},
	{"core.boot_quote_us", "us"},
	{"attest.session_us", "us"},
	{"core.attest_us", "us"},
	{"attest.verify_domain_us", "us"},
	{"core.depart_kill_us", "us"},
	// Standalone probes.
	{"hw.bare_instr_ns", "ns"},
	{"cap.share_ns", "ns"},
	{"cap.detach_ns", "ns"},
	{"cap.release_ns", "ns"},
	{"cap.owner_grants_ns", "ns"},
	{"cap.nodes_live", "count"},
	{"cap.limbo_nodes", "count"},
	{"backend.sync_domain_tenant_us", "us"},
	{"backend.sync_domain_dom0_us", "us"},
	{"backend.sync_device_us", "us"},
	{"backend.cleanup_us", "us"},
	{"trace.emit_ns", "ns"},
	{"dist.send_digest_us", "us"},
	{"tpm.quote_us", "us"},
	{"fleet.pick_ns", "ns"},
}

func defsFor(trace int) []metricDef {
	if trace == 1 {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// set records a value under a declared name; the unit comes from the
// declaration.
func (m metrics) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			if d.name == name {
				m[name] = metric{v, d.unit}
				return
			}
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// complete checks that the run measured exactly the metrics its mode
// declares and that each is a finite number.
func (m metrics) complete(trace int) error {
	defs := defsFor(trace)
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v.Value)
		}
	}
	if len(m) != len(defs) {
		return fmt.Errorf("%d metrics measured, %d declared", len(m), len(defs))
	}
	return nil
}
