package main

import "repro/internal/machine"

// metricSpec names one reported metric and its unit. The lists below
// are what BENCHMARK.json declares; the smoke test holds the two in
// step.
type metricSpec struct{ name, unit string }

// endToEnd is what an untraced run reports, for every workload. An op
// is one Table 1 run (usecase), one kernel pass (kernel) or one
// attestation session (fleet, fleet-telemetry).
var endToEnd = []metricSpec{
	{"setup_s", "s"},     // median of the run's set-ups
	{"op_us_p50", "us"},  // host time per op, median
	{"ops_per_s", "1/s"}, // ops completed per host second (fleet: attested sessions)
}

// replayLayer is what a traced run derives from its replay. A layer the
// workload never calls reports 0: it did no work there.
var replayLayer = []metricSpec{
	{"core.boot_us", "us"},
	{"core.load_sync_us", "us"},
	{"core.load_us", "us"},
	{"loader.async_load_us", "us"},
	{"rtos.tick_us", "us"},
	{"rtos.run_slice_us", "us"},
	{"rtos.switches_per_op", "count"},
	{"rtos.ticks_per_op", "count"},
	{"machine.sb_compiles_per_op", "count"},
	{"machine.sb_fallbacks_per_op", "count"},
	{"machine.gen_bumps_per_op", "count"},
	{"machine.decode_misses_per_op", "count"},
	{"machine.sb_hit_ratio", "ratio"},
	{"remote.session_us_p50", "us"},
	{"remote.wire_wait_us_p50", "us"},
	{"fleet.plane_self_us_p50", "us"},
	{"fleet.session_us_p99", "us"},
	{"fleet.cache_hit_ratio", "ratio"},
	{"trace.events_per_session", "count"},
	{"fleet.timeline_us_per_session", "us"},
	{"fleet.metrics_us", "us"},
	{"traced.op_us_p50", "us"},
	{"traced.ops_per_s", "1/s"},
	{"go.alloc_kb_per_op", "KB"},
}

// sbHitRatio is the share of superblock dispatches served by a compiled
// block: hits / (hits + fallbacks).
func sbHitRatio(s machine.Stats) float64 {
	if s.SBHits+s.SBFallbacks == 0 {
		return 0
	}
	return float64(s.SBHits) / float64(s.SBHits+s.SBFallbacks)
}

// perLayer is what a traced run reports: the replay's layers, then the
// micro-benchmarks, which every traced run measures.
func perLayer() []metricSpec {
	out := append([]metricSpec(nil), replayLayer...)
	for _, l := range layerBenches {
		out = append(out, metricSpec{l.name, l.unit})
	}
	return out
}
