package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestSmoke runs every workload for one second, and routed_closed traced
// (the ladder enters every layer), and holds what they emit against
// BENCHMARK.json: every workload and metric the contract names is
// present under that name with that unit, nothing else is emitted, the
// counts are consistent, the output checks pass, and the latency limit
// and accuracy ceiling each workload's `why` states are the ones the
// program applies. It times nothing. Its job is to make tier-1 fail when
// a refactored layer no longer fits the benchmark.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full stack for several seconds")
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads()))
	}
	check := func(t *testing.T, rep *report, want []specMetric) {
		t.Helper()
		if rep.Attempted < 1 || rep.Failed < 0 || rep.Failed > rep.Attempted {
			t.Errorf("inconsistent counts: attempted %d, failed %d", rep.Attempted, rep.Failed)
		}
		for _, w := range want {
			got, ok := rep.Metrics[w.Name]
			switch {
			case !nameRE.MatchString(w.Name):
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", w.Name)
			case !ok:
				t.Errorf("metric %s missing", w.Name)
			case got.Unit != w.Unit:
				t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit)
			}
		}
		if len(rep.Metrics) != len(want) {
			t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(rep.Metrics), len(want))
		}
	}
	run := func(t *testing.T, name string, tr *tracer, want []specMetric) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Fatalf("workload name %q is not [A-Za-z0-9_.-]+", name)
		}
		wl := findWorkload(name)
		if wl == nil {
			t.Fatalf("BENCHMARK.json names workload %q, the benchmark has none", name)
		}
		rep, problems, err := runWorkload(&env{seed: 1, seconds: 1, tr: tr, out: t.TempDir()}, wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range problems {
			t.Errorf("output check: %s", p)
		}
		check(t, rep, want)
	}
	for _, w := range sp.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			run(t, w.Name, nil, sp.EndToEnd)
			wl := findWorkload(w.Name)
			if want := fmt.Sprintf("latency limit %g us, rmse ceiling %g", wl.sloUS, wl.rmseCeil); !strings.HasSuffix(w.Why, want) {
				t.Errorf("BENCHMARK.json's why for %s does not end in %q", w.Name, want)
			}
			if want := fmt.Sprintf("%g rows/s", openRate); w.Name == "routed_open" && !strings.Contains(w.Why, want) {
				t.Errorf("BENCHMARK.json's why for routed_open does not state the rate %q", want)
			}
		})
	}
	t.Run("traced", func(t *testing.T) { run(t, "routed_closed", newTracer(), sp.PerLayer) })
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100000
		if got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1 %%", q, got, want)
		}
	}
}
