package main

import (
	"encoding/json"
	"math"
)

// runSeconds is how long one invocation measures by default, and the
// run length BENCHMARK.json declares.
const runSeconds = 30

// e2eMetric is an end-to-end metric: what a user of the simulator
// sees, with the share of the parent's median by which it may worsen
// before a change counts as a regression.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerMetric is a per-layer metric of the traced run; it has no bound.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the metrics of an untraced run (--trace 0).
var endToEnd = []e2eMetric{
	{"req_per_wall_s", "req/s", "higher", 0.25},
	{"cpu_us_per_req", "us", "lower", 0.25},
	{"peak_heap_mib", "MiB", "lower", 0.25},
	{"allocs_per_req", "count", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
	{"sim_p50_ms", "ms", "lower", 0.15},
	{"sim_p99_ms", "ms", "lower", 0.2},
	{"sim_goodput_per_s", "req/s", "higher", 0.05},
	{"sim_completed_frac", "ratio", "higher", 0.02},
	{"sim_slo_attainment", "ratio", "higher", 0.1},
}

// cpuLayerMetrics expands the fold's layers into their CPU share and
// the nanoseconds per offered request that share stands for.
func cpuLayerMetrics() []layerMetric {
	var out []layerMetric
	for _, l := range layers {
		out = append(out,
			layerMetric{l + ".cpu_share", "ratio", "lower"},
			layerMetric{l + ".ns_per_req", "ns", "lower"})
	}
	return out
}

// perLayer lists the metrics of a traced run (--trace 1).
var perLayer = append(cpuLayerMetrics(), []layerMetric{
	{"exper.artifacts_ms", "ms", "lower"},
	{"exper.spec_us", "us", "lower"},
	{"cluster.topology_ms", "ms", "lower"},
	{"cluster.partition_ms", "ms", "lower"},
	{"exper.platform_build_ms", "ms", "lower"},
	{"tenancy.next_ns", "ns", "lower"},
	{"tenancy.arrivals", "count", "higher"},
	{"sched.decide_ns", "ns", "lower"},
	{"sched.report_ns", "ns", "lower"},
	{"sched.decisions", "count", "higher"},
	{"sched.to_x86", "count", "higher"},
	{"sched.to_arm", "count", "higher"},
	{"sched.to_fpga", "count", "higher"},
	{"sched.reconfigs_started", "count", "lower"},
	{"sched.reconfigs_skipped_pending", "count", "lower"},
	{"sched.reconfigs_all_busy", "count", "lower"},
	{"sched.reconfig_useful_frac", "ratio", "higher"},
	{"simtime.event_ns", "ns", "lower"},
	{"simtime.psserver_ns", "ns", "lower"},
	{"exper.lifecycle_us", "us", "lower"},
	{"exper.lifecycle_events", "count", "lower"},
	{"fpga.reconfigs", "count", "lower"},
	{"quantile.add_ns", "ns", "lower"},
	{"quantile.merge_us", "us", "lower"},
	{"faults.timeline_ms", "ms", "lower"},
	{"faults.events", "count", "lower"},
	{"faults.disrupted", "count", "lower"},
	{"faults.retried", "count", "lower"},
	{"faults.lost", "count", "lower"},
	{"faults.fpga_fallbacks", "count", "lower"},
	{"faults.retry_success_frac", "ratio", "higher"},
	{"elastic.shed", "count", "lower"},
	{"par.cpu_utilisation", "ratio", "higher"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.bytes_per_req", "B", "lower"},
	{"exper.offered", "count", "higher"},
	{"exper.completed", "count", "higher"},
	{"exper.fail_frac", "ratio", "lower"},
	{"exper.mean_host_load", "count", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}...)

// manifest is the BENCHMARK.json the benchmark declares itself by.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []e2eMetric   `json:"end_to_end"`
	PerLayer   []layerMetric `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifestJSON renders BENCHMARK.json from the tables above, so the
// metric list lives in one place.
func manifestJSON() ([]byte, error) {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloadTable {
		m.Workloads = append(m.Workloads, workloadDoc{w.name, w.why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finite maps NaN and infinities (a ratio over an empty base) to 0, so
// every reported value is a JSON number.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
