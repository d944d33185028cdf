package main

import (
	"fmt"
	"slices"
)

// layerMetric is one per-layer metric: its unit, the end-to-end metric it
// should move, and the workloads whose traced run measures it.
type layerMetric struct {
	name, unit, moves string
	on                []string
}

var (
	sweepOnly   = []string{"paper-sweep"}
	serving     = []string{"serve-wire", "serve-durable"}
	everywhere  = []string{"paper-sweep", "serve-wire", "serve-durable"}
	durableOnly = []string{"serve-durable"}
)

// layerMetrics lists every per-layer metric in print order. A traced run
// prints all of them; one whose layer the workload does not exercise
// reads 0 and is marked "not exercised".
var layerMetrics = []layerMetric{
	{"workload.generate_us_per_txn", "us", "sweep_s", sweepOnly},
	{"core.new_us_per_txn", "us", "sweep_s", sweepOnly},
	{"core.run_us_per_txn", "us", "sweep_s, cpu_us_per_txn", sweepOnly},
	{"core.alloc_bytes_per_txn", "B", "cpu_us_per_txn, peak_rss_mb", sweepOnly},
	{"core.allocs_per_txn", "count", "cpu_us_per_txn, peak_rss_mb", sweepOnly},
	{"core.restarts_per_txn", "count", "nothing (interpretation: work wasted to wounds)", sweepOnly},
	{"experiment.busy_ratio", "ratio", "sweep_s", sweepOnly},
	{"client.rtt_p50_ms", "ms", "p50_ms", serving},
	{"client.rtt_p99_ms", "ms", "p99_ms", serving},
	{"gen.lag_p99_ms", "ms", "nothing (must stay far below the deadline)", serving},
	{"engine.response_p50_ms", "ms", "p50_ms", serving},
	{"engine.response_p99_ms", "ms", "p99_ms", serving},
	{"serve.overhead_p50_ms", "ms", "p50_ms", serving},
	{"server.alloc_bytes_per_txn", "B", "cpu_us_per_txn, peak_rss_mb", serving},
	{"server.allocs_per_txn", "count", "cpu_us_per_txn, peak_rss_mb", serving},
	{"server.gc_per_ktxn", "count", "cpu_us_per_txn, peak_rss_mb", serving},
	{"server.writes_per_txn", "count", "cpu_us_per_txn", serving},
	{"server.reads_per_txn", "count", "cpu_us_per_txn", serving},
	{"engine.restarts_per_txn", "count", "goodput_tps", serving},
	{"engine.rejected", "count", "goodput_tps", serving},
	{"wal.records_per_sync", "count", "cpu_us_per_txn, p50_ms", durableOnly},
	{"wal.bytes_per_txn", "B", "cpu_us_per_txn, p50_ms", durableOnly},
	{"wire.codec_ns_per_txn", "ns", "cpu_us_per_txn", serving},
	{"wire.codec_allocs_per_txn", "count", "cpu_us_per_txn", serving},
	{"wire.loopback_p50_us", "us", "p50_ms, cpu_us_per_txn", serving},
	{"wire.loopback_p99_us", "us", "p99_ms", serving},
	{"service.handoff_p50_us", "us", "p50_ms", serving},
	{"service.handoff_p99_us", "us", "p99_ms", serving},
	{"wal.append_ns", "ns", "cpu_us_per_txn", serving},
	{"wal.durable_p50_us", "us", "p50_ms", serving},
	{"wal.durable_p99_us", "us", "p99_ms", serving},
	{"p99_ms", "ms", "nothing (end-to-end p99, kept out of the bounded set: too noisy to repeat within a tenth)", everywhere},
	{"trace.overhead_pct", "%", "nothing", everywhere},
	{"host.sleep_100us_us", "us", "nothing (latency floor of generator and driver)", everywhere},
}

// emitLayers adds every per-layer metric to o, taking values from vals.
func emitLayers(o *outcome, e *env, vals map[string]float64) {
	workload := e.workload
	vals["host.sleep_100us_us"] = e.sleepUS
	for _, m := range layerMetrics {
		moves := fmt.Sprintf("moves %s on %v", m.moves, m.on)
		if !slices.Contains(m.on, workload) {
			moves = "not exercised by " + workload
		} else if _, ok := vals[m.name]; !ok {
			o.problem("per-layer metric %s was not measured", m.name)
		}
		o.add(m.name, vals[m.name], m.unit, moves)
	}
}
