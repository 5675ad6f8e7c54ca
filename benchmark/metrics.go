package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// userMetrics are what a user of the system sees, in the order
// BENCHMARK.json lists them. The untraced run reports the ones that hold
// a ≤10 % bound on every workload (CALIBRATION.md) under their own name.
// The others are demoted: the traced run reports them, same definition,
// as workload.<name> in the per-layer list, which has no bound.
var userMetrics = []struct {
	name, unit string
	demoted    bool
}{
	{"setup_s", "s", false},
	{"rows_per_s", "rows/s", true},
	{"latency_p50_us", "us", true},
	{"latency_p99_us", "us", true},
	{"slo_ok_share", "share", false},
	{"cpu_us_per_row", "us", true},
	{"answer_rmse", "target", true},
	{"peak_rss_mb", "MB", false},
}

// layerUnits names every per-layer metric and its unit. A traced run
// reports all of them: the ones the traced workload does not measure —
// a layer it never enters, a probe that belongs to another workload's
// traced run — are reported as 0 (README.md says which run measures
// which).
var layerUnits = map[string]string{
	"tensor.matmul_bias_ns_per_row":  "ns",
	"tensor.quant_sweep_ns_per_row":  "ns",
	"tensor.matmul_flops_per_row":    "flop",
	"tensor.matmul_bytes_per_row":    "B",
	"nn.float_batch_ns_per_row":      "ns",
	"nn.int8_batch_ns_per_row":       "ns",
	"nn.float_row_ns":                "ns",
	"nn.int8_row_ns":                 "ns",
	"nn.fit_ns_per_sample_epoch":     "ns",
	"nn.compile_quantize_ms":         "ms",
	"nn.rung_p50_us":                 "us",
	"nn.rung_rows_per_s":             "rows/s",
	"core.added_p50_us":              "us",
	"core.rung_rows_per_s":           "rows/s",
	"core.query_batch_ns_per_row":    "ns",
	"core.query_row_ns":              "ns",
	"core.surrogate_share":           "share",
	"core.oracle_share":              "share",
	"core.oracle_busy_share":         "share",
	"core.quant_fallback_share":      "share",
	"core.ingest_ns_per_row":         "ns",
	"core.refits":                    "count",
	"core.refit_ms_p50":              "ms",
	"core.generations_published":     "count",
	"core.query_p99_during_refit_us": "us",
	"serve.added_p50_us":             "us",
	"serve.added_p99_us":             "us",
	"serve.rung_rows_per_s":          "rows/s",
	"serve.mean_batch":               "rows",
	"serve.gather_wait_p50_us":       "us",
	"serve.backend_busy_share":       "share",
	"fleet.added_p50_us":             "us",
	"fleet.rung_rows_per_s":          "rows/s",
	"fleet.shed_share":               "share",
	"fleet.brownout_steps":           "count",
	"netserve.added_p50_us":          "us",
	"netserve.added_p99_us":          "us",
	"netserve.rung_rows_per_s":       "rows/s",
	"netserve.rows_per_write_server": "rows",
	"netserve.rows_per_write_client": "rows",
	"netserve.bytes_per_row":         "B",
	"netserve.responses_per_flush":   "rows",
	"netserve.retry_share":           "share",
	"netserve.expired_share":         "share",
	"router.added_p50_us":            "us",
	"router.added_p99_us":            "us",
	"router.rung_rows_per_s":         "rows/s",
	"router.frames_per_burst":        "rows",
	"router.rows_per_write":          "rows",
	"router.retry_share":             "share",
	"router.placement_skew":          "ratio",
	"registry.publish_ms_p50":        "ms",
	"registry.warm_start_ms":         "ms",
	"registry.artifact_kb":           "kB",
	"registry.publishes":             "count",
	"registry.quarantines":           "count",
	"loadgen.late_p99_us":            "us",
	"trace.overhead_share":           "share",
}

// set records a per-layer metric under the unit layerUnits gives it.
func (m metrics) set(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: per-layer metric %q is not in layerUnits", name))
	}
	m.put(name, v, unit)
}

func (m metrics) put(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{v, unit}
}

// user reports the eight user-facing values: untraced, the end-to-end
// ones; traced, the demoted ones as workload.<name>.
func (m metrics) user(traced bool, values map[string]float64) {
	for _, u := range userMetrics {
		switch {
		case !traced && !u.demoted:
			m.put(u.name, values[u.name], u.unit)
		case traced && u.demoted:
			m.put("workload."+u.name, values[u.name], u.unit)
		}
	}
}

// zeroFill reports as 0 every per-layer metric the traced workload did
// not measure.
func (m metrics) zeroFill() {
	for name := range layerUnits {
		if _, ok := m[name]; !ok {
			m.set(name, 0)
		}
	}
}

func (m metrics) print() {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
