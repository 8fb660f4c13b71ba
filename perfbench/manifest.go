package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// metricDef declares one reported metric. Bound, for end-to-end metrics
// only, is the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEndMetrics come from untraced runs. Every workload reports all of
// them: the latency and ladder metrics are measured on the embedded
// workloads too, with the engine's delivery hook as the consumer. The
// p99 latencies are per-layer metrics instead: on a 2-CPU shared host
// they spread 20-55% between runs, beyond the largest bound a metric
// may have, so they are reported without one.
var endToEndMetrics = []metricDef{
	{"throughput_eps", "elements/s", "higher", 0.25},
	{"sustainable_rate_eps", "elements/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"punct_latency_p50_us", "us", "lower", 0.25},
	{"peak_state_tuples", "tuples", "lower", 0.1},
	{"peak_punct_store", "punctuations", "lower", 0.1},
	{"allocs_per_elem", "count", "lower", 0.05},
	{"bytes_per_elem", "B", "lower", 0.05},
	{"heap_peak_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics come from the traced run. A metric that does not apply
// to a workload (server metrics on an embedded workload, partition
// metrics on a single tree) reads 0.
var perLayerMetrics = []metricDef{
	{"latency_p99_us", "us", "lower", 0},
	{"punct_latency_p99_us", "us", "lower", 0},
	{"wire.decode_ns_per_elem", "ns", "lower", 0},
	{"wire.decode_allocs_per_elem", "count", "lower", 0},
	{"wire.encode_ns_per_elem", "ns", "lower", 0},
	{"wire.bytes_per_elem", "B", "lower", 0},
	{"exec.tuple_ns", "ns", "lower", 0},
	{"exec.tuple_allocs", "count", "lower", 0},
	{"exec.punct_ns", "ns", "lower", 0},
	{"exec.punct_allocs", "count", "lower", 0},
	{"exec.punct_time_frac", "ratio", "lower", 0},
	{"exec.purge_useful_ratio", "ratio", "higher", 0},
	{"exec.purge_checks_per_punct", "count", "lower", 0},
	{"exec.results_per_tuple", "count", "higher", 0},
	{"engine.ingest_ns_per_elem", "ns", "lower", 0},
	{"engine.drain_ns", "ns", "lower", 0},
	{"engine.runtime_self_ns_per_elem", "ns", "lower", 0},
	{"engine.stats_barrier_us", "us", "lower", 0},
	{"engine.dead_letters", "count", "lower", 0},
	{"engine.partition.skew", "ratio", "lower", 0},
	{"engine.partition.critical_path_ns_per_elem", "ns", "lower", 0},
	{"engine.share.physical_trees", "count", "lower", 0},
	{"engine.share.delivered_per_view", "count", "higher", 0},
	{"server.send_ns_per_elem", "ns", "lower", 0},
	{"server.flush_us", "us", "lower", 0},
	{"server.commit_lag_us_p50", "us", "lower", 0},
	{"server.commit_lag_us_p99", "us", "lower", 0},
	{"server.ack_lag_ms_p50", "ms", "lower", 0},
	{"server.ack_lag_ms_p99", "ms", "lower", 0},
	{"server.checkpoint_ms_p50", "ms", "lower", 0},
	{"server.checkpoint_ms_max", "ms", "lower", 0},
	{"server.checkpoint_bytes", "B", "lower", 0},
	{"server.sub_behind_max", "count", "lower", 0},
	{"server.backlog_max", "count", "lower", 0},
	{"gen.late_p99_us", "us", "lower", 0},
	{"setup.safety_check_us", "us", "lower", 0},
	{"setup.plan_choose_us", "us", "lower", 0},
	{"setup.register_us", "us", "lower", 0},
	{"setup.server_start_ms", "ms", "lower", 0},
	{"setup.connect_ms", "ms", "lower", 0},
	{"recon.residual_ns_per_elem", "ns", "lower", 0},
	{"recon.residual_frac", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"failed_frac", "ratio", "lower", 0},
}

// runSeconds is the measured time per run that BENCHMARK.json declares
// (run_seconds) and the default of -seconds.
const runSeconds = 30

// manifestJSON renders BENCHMARK.json from the tables above, so the file
// and the program cannot disagree (TestManifestUpToDate checks it).
func manifestJSON() ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n") {
			return nil, fmt.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.name, len(w.why))
		}
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEndMetrics {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayerMetrics {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
