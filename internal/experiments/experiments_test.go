package experiments

import (
	"math"
	"strings"
	"testing"
)

// The experiment functions are integration tests of the whole stack; each
// smoke test asserts the paper's qualitative claim shape at Small scale.

func TestE1(t *testing.T) {
	r, err := E1EffectiveSpeedup(Small)
	if err != nil {
		t.Fatal(err)
	}
	if r.LimitInfinite < 10 {
		t.Fatalf("Tseq/Tlookup = %g; surrogate lookups should dominate simulation by orders of magnitude", r.LimitInfinite)
	}
	// The sweep must be monotone and approach the limit.
	last := r.Speedups[len(r.Speedups)-1]
	if last < 0.5*r.LimitInfinite {
		t.Fatalf("large-ratio speedup %g not approaching limit %g", last, r.LimitInfinite)
	}
	if !strings.Contains(r.String(), "effective speedup") {
		t.Fatal("table missing header")
	}
}

func TestE2(t *testing.T) {
	r, err := E2NanoSurrogate(Small)
	if err != nil {
		t.Fatal(err)
	}
	if r.TrainN+r.TestN != r.Runs {
		t.Fatal("split does not partition runs")
	}
	// Peak density is the easiest target; require a real fit.
	if r.R2[2] < 0.5 {
		t.Fatalf("peak-density R2 %g too low for a trained surrogate", r.R2[2])
	}
	if r.SpeedupFactor < 100 {
		t.Fatalf("lookup speedup %g; paper claims ~1e5 at full simulation length", r.SpeedupFactor)
	}
	if !strings.Contains(r.String(), "contact") {
		t.Fatal("table missing target rows")
	}
}

func TestE4(t *testing.T) {
	r, err := E4DEFSI(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Methods) != 3 {
		t.Fatalf("%d methods want 3", len(r.Methods))
	}
	for i, m := range r.Methods {
		if r.State[i] < 0 || r.County[i] < 0 {
			t.Fatalf("%s produced negative RMSE", m)
		}
	}
	// The paper's claim: DEFSI beats the naive data-driven baseline at
	// county level (persistence cannot downscale).
	if r.County[0] >= r.County[2] {
		t.Fatalf("DEFSI county RMSE %g not better than persistence %g", r.County[0], r.County[2])
	}
	if !strings.Contains(r.String(), "DEFSI") {
		t.Fatal("table missing method rows")
	}
}

func TestE5(t *testing.T) {
	r, err := E5NNPotential(Small)
	if err != nil {
		t.Fatal(err)
	}
	if r.TestMAE >= r.MeanBaseline {
		t.Fatalf("NN potential MAE %g no better than mean baseline %g", r.TestMAE, r.MeanBaseline)
	}
	if r.SpeedupFactor < 10 {
		t.Fatalf("oracle/NN speedup %g; expected orders of magnitude", r.SpeedupFactor)
	}
}

func TestE7(t *testing.T) {
	r, err := E7DropoutUQ(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Coverage) != len(r.DropoutRates) {
		t.Fatal("coverage rows missing")
	}
	for i, c := range r.Coverage {
		if c < 0 || c > 1 {
			t.Fatalf("coverage[%d]=%g outside [0,1]", i, c)
		}
	}
	// In the moderate regime, interval width grows with dropout rate; at
	// extreme rates the model (and its UQ) degrades — which is exactly the
	// paper's research issue 10 ("two models with different dropout rates
	// can produce different UQ results"). Assert only the moderate-regime
	// ordering.
	if r.MeanWidth[2] <= r.MeanWidth[0] {
		t.Fatalf("interval width should grow from p=0.05 to p=0.2: %v", r.MeanWidth)
	}
}

func TestE8(t *testing.T) {
	r, err := E8SolventSurrogate(Small)
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup <= 1 {
		t.Fatalf("surrogate kernel speedup %g; must beat the exact kernel", r.Speedup)
	}
	if r.DensityL1Error > 0.6 {
		t.Fatalf("profile error %g too large; surrogate kernel should preserve structure", r.DensityL1Error)
	}
}

func TestE9(t *testing.T) {
	r, err := E9TissueShortCircuit(Small)
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup <= 1 {
		t.Fatalf("short-circuit speedup %g; learned stepper must beat explicit", r.Speedup)
	}
	if r.RelativeL2Err > 0.25 {
		t.Fatalf("relative field error %g too large", r.RelativeL2Err)
	}
}

func TestE10Models(t *testing.T) {
	r, err := E10ParallelModels(Small)
	if err != nil {
		t.Fatal(err)
	}
	// Every model at every worker count must actually optimize.
	for mi := range r.FinalLoss {
		for wi, loss := range r.FinalLoss[mi] {
			if loss > 1 {
				t.Fatalf("model %d workers idx %d final loss %g", mi, wi, loss)
			}
		}
	}
	if !strings.Contains(r.String(), "Allreduce") {
		t.Fatal("table missing model rows")
	}
}

func TestE10Sched(t *testing.T) {
	r, err := E10Scheduler(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Strategies) != 3 {
		t.Fatalf("%d strategies want 3", len(r.Strategies))
	}
	// "Dynamic balances at least as well as static" is held on a virtual
	// clock by sched's TestDynamicBeatsStaticOnHeterogeneousMix; two
	// wall-clock imbalance figures from spinning tasks cannot hold it on a
	// shared box. Here: the experiment runs and reports sane figures.
	for i, name := range r.Strategies {
		for _, v := range []float64{r.Makespan[i], r.Util[i]} {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Fatalf("%s: makespan %g / utilisation %g not finite and positive", name, r.Makespan[i], r.Util[i])
			}
		}
	}
	if !strings.Contains(r.String(), "E10b heterogeneous scheduling") {
		t.Fatal("table missing header")
	}
}

func TestE3(t *testing.T) {
	if testing.Short() {
		t.Skip("E3 probes many MD runs; skipped in -short")
	}
	r, err := E3Autotune(Small)
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanChosenDt <= 0 {
		t.Fatal("autotuner chose non-positive dt")
	}
	// The tuned dt should be a usable fraction of the best stable dt.
	if r.DtEfficiency < 0.2 || r.DtEfficiency > 2.5 {
		t.Fatalf("dt efficiency %g implausible", r.DtEfficiency)
	}
	if !strings.Contains(r.String(), "MLautotuning") {
		t.Fatal("table missing header")
	}
}

func TestE6(t *testing.T) {
	if testing.Short() {
		t.Skip("E6 trains many committees; skipped in -short")
	}
	r, err := E6ActiveLearning(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ALCurve) < 2 || len(r.RandomCurve) < 2 {
		t.Fatal("learning curves too short")
	}
	// Random reaches its own final accuracy by construction.
	if r.RandomSamples < 0 {
		t.Fatal("random curve never reaches its own final MAE")
	}
	if !strings.Contains(r.String(), "active learning") {
		t.Fatal("table missing header")
	}
}

func TestE11(t *testing.T) {
	r, err := E11FleetServing(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tenants) != 3 {
		t.Fatalf("fleet served %d tenants, want 3", len(r.Tenants))
	}
	// A starvation-prone front-end collapses the min/max per-tenant QPS
	// ratio toward 0; equal offered load through one dispatch plane must
	// stay near parity.
	if r.Fairness < 0.5 {
		t.Fatalf("fairness %g; one tenant is starving the rest", r.Fairness)
	}
	for i, name := range r.Tenants {
		if r.SurFrac[i] < 0.5 {
			t.Fatalf("tenant %s served only %.0f%% from its surrogate under a wide-open gate", name, 100*r.SurFrac[i])
		}
		if r.QPS[i] <= 0 {
			t.Fatalf("tenant %s reports zero throughput", name)
		}
	}
	if !strings.Contains(r.String(), "fairness") {
		t.Fatal("table missing fairness line")
	}
}
