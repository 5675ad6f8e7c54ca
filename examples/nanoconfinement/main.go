// Nanoconfinement: the paper's flagship MLaroundHPC exemplar (§II-C1,
// §III-D). Generate confined-electrolyte MD runs over the experimental
// parameter ranges, train the D=5 density surrogate, and predict
// contact/mid/peak densities for unseen state points — "generate accurate
// predictions for un-simulated state-points (by entirely bypassing
// simulations)".
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/md"
	"repro/internal/xrand"
)

func main() {
	rng := xrand.New(7)
	cfg := md.DefaultConfig()
	cfg.L = 8
	rc := md.RunConfig{EquilSteps: 200, SampleSteps: 600, SampleEvery: 6, Bins: 30}
	oracle := md.NewOracle(cfg, rc)

	// Sampling plan over (h, z+, z-, c, d) — the paper's five features.
	const runs = 120
	lo := []float64{4, 1, 1, 0.02, 0.8}
	hi := []float64{10, 3, 3, 0.12, 1.2}
	design := data.LatinHypercube(runs, 5, lo, hi, rng)
	for i := 0; i < design.Rows; i++ {
		for _, j := range []int{1, 2} {
			v := float64(int(design.At(i, j) + 0.5))
			if v < 1 {
				v = 1
			}
			if v > 3 {
				v = 3
			}
			design.Set(i, j, v)
		}
	}

	fmt.Printf("Running %d MD simulations (this is the expensive part)...\n", runs)
	ds := &data.Dataset{FeatureNames: md.FeatureNames(), TargetNames: md.TargetNames()}
	t0 := time.Now()
	for i := 0; i < design.Rows; i++ {
		y, err := oracle.Run(design.Row(i))
		if err != nil {
			panic(err)
		}
		ds.Append(design.Row(i), y)
	}
	simSec := time.Since(t0).Seconds()
	fmt.Printf("  %d runs in %.1fs (%.3fs/run)\n\n", runs, simSec, simSec/runs)

	train, test := ds.Split(0.7, rng) // the paper's 70/30 split
	sur := core.NewNNSurrogate(5, 3, []int{30, 48}, 0.1, rng)
	sur.Epochs = 300
	fmt.Printf("Training surrogate on %d runs (testing on %d)...\n", train.Len(), test.Len())
	if err := sur.Train(train.X, train.Y); err != nil {
		panic(err)
	}

	fmt.Println("\nPredictions for unseen state points (surrogate vs simulation):")
	fmt.Printf("  %-38s %-28s %-28s\n", "params (h,z+,z-,c,d)", "surrogate (cont,mid,peak)", "simulation (cont,mid,peak)")
	for i := 0; i < 3; i++ {
		x := test.X.Row(i)
		t0 = time.Now()
		pred := core.Predict(sur, x)
		lookupSec := time.Since(t0).Seconds()
		truth := test.Y.Row(i)
		fmt.Printf("  %-38v %-28v %-28v\n", trunc(x), trunc(pred), trunc(truth))
		fmt.Printf("    lookup took %.2gs vs %.2gs simulation → %.0fx\n",
			lookupSec, simSec/runs, simSec/runs/lookupSec)
	}
}

func trunc(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(int(v*1000+0.5)) / 1000
	}
	return out
}
