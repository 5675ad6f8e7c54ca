// Package experiments implements the E1–E10 reproduction harness mapped in
// DESIGN.md §4: one entry point per quantitative claim of the paper, each
// returning a printable result table. The cmd/learnhpc binary and the
// top-level benchmarks both drive these functions; EXPERIMENTS.md records
// paper-vs-measured for each.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/md"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Scale selects experiment sizing. Small keeps everything under a few
// seconds for tests/benches; Full is the documented reproduction scale.
type Scale int

// Experiment scales.
const (
	Small Scale = iota
	Full
)

func pick(s Scale, small, full int) int {
	if s == Full {
		return full
	}
	return small
}

// mdRunConfig returns the production schedule per scale.
func mdRunConfig(s Scale) md.RunConfig {
	if s == Full {
		return md.RunConfig{EquilSteps: 800, SampleSteps: 2400, SampleEvery: 10, Bins: 40}
	}
	return md.RunConfig{EquilSteps: 120, SampleSteps: 300, SampleEvery: 6, Bins: 24}
}

// E1Result is the effective-speedup sweep (the paper's §III-D formula).
type E1Result struct {
	Tseq, Ttrain, Tlearn, Tlookup float64 // measured seconds
	Ratios                        []float64
	Speedups                      []float64
	LimitNoML                     float64
	LimitInfinite                 float64
}

// E1EffectiveSpeedup measures Tseq/Tlookup/Tlearn on the real MD surrogate
// pipeline and sweeps the formula over Nlookup/Ntrain ratios.
func E1EffectiveSpeedup(scale Scale) (*E1Result, error) {
	rng := xrand.New(41)
	cfg := md.DefaultConfig()
	cfg.L = 8
	oracle := md.NewOracle(cfg, mdRunConfig(scale))

	// Measure Tseq: one simulation.
	x := []float64{6, 1, 1, 0.05, 1.0}
	t0 := time.Now()
	if _, err := oracle.Run(x); err != nil {
		return nil, err
	}
	tseq := time.Since(t0).Seconds()

	// Train a small surrogate on a few runs to measure Tlearn and Tlookup.
	nTrain := pick(scale, 24, 120)
	lo := []float64{4, 1, 1, 0.02, 0.8}
	hi := []float64{10, 3, 3, 0.12, 1.2}
	design := data.LatinHypercube(nTrain, 5, lo, hi, rng)
	quantizeValencies(design)
	xs := tensor.NewMatrix(0, 5)
	ys := tensor.NewMatrix(0, 3)
	for i := 0; i < design.Rows; i++ {
		y, err := oracle.Run(design.Row(i))
		if err != nil {
			return nil, err
		}
		xs.Data = append(xs.Data, design.Row(i)...)
		xs.Rows++
		ys.Data = append(ys.Data, y...)
		ys.Rows++
	}
	sur := core.NewNNSurrogate(5, 3, []int{30, 48}, 0.1, rng)
	sur.Epochs = pick(scale, 80, 300)
	t0 = time.Now()
	if err := sur.Train(xs, ys); err != nil {
		return nil, err
	}
	tlearn := time.Since(t0).Seconds() / float64(nTrain)

	// Measure Tlookup over many inferences.
	const lookups = 200
	t0 = time.Now()
	for i := 0; i < lookups; i++ {
		core.Predict(sur, x)
	}
	tlookup := time.Since(t0).Seconds() / lookups

	res := &E1Result{
		Tseq: tseq, Ttrain: tseq, Tlearn: tlearn, Tlookup: tlookup,
		Ratios:        []float64{0, 0.1, 1, 10, 100, 1e3, 1e4, 1e5, 1e6},
		LimitNoML:     core.SpeedupNoML(tseq, tseq),
		LimitInfinite: core.SpeedupInfiniteLookup(tseq, tlookup),
	}
	res.Speedups = core.SpeedupCurve(tseq, tseq, tlearn, tlookup, float64(nTrain), res.Ratios)
	return res, nil
}

// String renders the E1 table.
func (r *E1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E1 effective speedup (measured Tseq=%.3gs Tlearn=%.3gs/sample Tlookup=%.3gs)\n", r.Tseq, r.Tlearn, r.Tlookup)
	fmt.Fprintf(&b, "  limits: no-ML=%.3g  infinite-lookup=%.4g (Tseq/Tlookup)\n", r.LimitNoML, r.LimitInfinite)
	fmt.Fprintf(&b, "  %-12s %-12s\n", "Nlk/Ntr", "speedup S")
	for i, ratio := range r.Ratios {
		fmt.Fprintf(&b, "  %-12g %-12.4g\n", ratio, r.Speedups[i])
	}
	return b.String()
}

// quantizeValencies snaps columns 1 and 2 (z+, z−) to integers in [1,3].
func quantizeValencies(m *tensor.Matrix) {
	for i := 0; i < m.Rows; i++ {
		for _, j := range []int{1, 2} {
			v := math.Round(m.At(i, j))
			if v < 1 {
				v = 1
			}
			if v > 3 {
				v = 3
			}
			m.Set(i, j, v)
		}
	}
}

// E2Result is the nano-confinement surrogate accuracy table.
type E2Result struct {
	Runs, TrainN, TestN int
	Targets             []string
	MAE, RMSE, R2       []float64
	MeanSimSeconds      float64
	MeanLookupSeconds   float64
	SpeedupFactor       float64
	// Sharded-serving stage: the same corpus served through the
	// stall-free ShardedWrapper (per-shard double-buffered surrogates).
	Shards              int
	ShardSizes          []int
	ShardedServedFrac   float64 // fraction of test rows served by surrogates
	ShardedLookupSecond float64 // mean per-row latency through QueryBatch
}

// E2NanoSurrogate reproduces the paper's flagship exemplar: D=5 features
// (h, z+, z−, c, d), 70/30 split, MLP surrogate predicting contact, mid
// and peak ionic densities, with the lookup/simulate wall-clock ratio.
// The paper used 6864 runs on BigRed2; the reproduction default is a
// smaller Latin-hypercube corpus with the same pipeline (EXPERIMENTS.md
// documents the substitution).
func E2NanoSurrogate(scale Scale) (*E2Result, error) {
	rng := xrand.New(42)
	cfg := md.DefaultConfig()
	cfg.L = 8
	oracle := md.NewOracle(cfg, mdRunConfig(scale))
	runs := pick(scale, 60, 686)

	lo := []float64{4, 1, 1, 0.02, 0.8}
	hi := []float64{10, 3, 3, 0.12, 1.2}
	design := data.LatinHypercube(runs, 5, lo, hi, rng)
	quantizeValencies(design)

	ds := &data.Dataset{FeatureNames: md.FeatureNames(), TargetNames: md.TargetNames()}
	simTime := time.Duration(0)
	for i := 0; i < design.Rows; i++ {
		t0 := time.Now()
		y, err := oracle.Run(design.Row(i))
		if err != nil {
			return nil, err
		}
		simTime += time.Since(t0)
		ds.Append(design.Row(i), y)
	}
	train, test := ds.Split(0.7, rng)

	sur := core.NewNNSurrogate(5, 3, []int{30, 48}, 0.1, rng)
	sur.Epochs = pick(scale, 150, 400)
	if err := sur.Train(train.X, train.Y); err != nil {
		return nil, err
	}

	res := &E2Result{
		Runs: runs, TrainN: train.Len(), TestN: test.Len(),
		Targets:        md.TargetNames(),
		MeanSimSeconds: simTime.Seconds() / float64(runs),
	}
	// Per-target metrics. The whole test set is served in one batched
	// surrogate pass — the serving path heavy traffic takes through
	// ShardedWrapper.QueryBatch.
	t0 := time.Now()
	var preds tensor.Matrix
	sur.PredictInto(test.X, &preds, nil)
	res.MeanLookupSeconds = time.Since(t0).Seconds() / float64(test.Len())
	for j := range res.Targets {
		p := make([]float64, test.Len())
		y := make([]float64, test.Len())
		for i := 0; i < test.Len(); i++ {
			p[i] = preds.At(i, j)
			y[i] = test.Y.At(i, j)
		}
		res.MAE = append(res.MAE, stats.MAE(p, y))
		res.RMSE = append(res.RMSE, stats.RMSE(p, y))
		res.R2 = append(res.R2, stats.R2(p, y))
	}
	res.SpeedupFactor = res.MeanSimSeconds / res.MeanLookupSeconds

	// Sharded serving stage: load the training corpus into a stall-free
	// ShardedWrapper (hash-partitioned, double-buffered per shard) and
	// serve the whole test set through the partitioned batch path — the
	// production route heavy query traffic takes. The generous UQ gate
	// keeps the already-simulated test rows from re-running MD here.
	shards := pick(scale, 2, 4)
	factory := core.NewNNSurrogateFactory(5, 3, []int{30, 48}, 0.1, rng.Split(), func(s *core.NNSurrogate) {
		s.Epochs = pick(scale, 150, 400)
		s.MCPasses = 10
	})
	sw := core.NewShardedWrapper(oracle, factory, core.ShardedConfig{
		Shards: shards, UQThreshold: 1e6, MinTrainSamples: 1,
	})
	if err := sw.Ingest(train.X, train.Y); err != nil {
		return nil, err
	}
	if err := sw.TrainAll(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	served, err := sw.QueryBatch(test.X)
	if err != nil {
		return nil, err
	}
	res.ShardedLookupSecond = time.Since(t0).Seconds() / float64(test.Len())
	hits := 0
	for _, r := range served {
		if r.Err != nil {
			return nil, r.Err
		}
		if r.Src == core.FromSurrogate {
			hits++
		}
	}
	res.Shards = sw.NumShards()
	res.ShardSizes = sw.ShardSizes()
	res.ShardedServedFrac = float64(hits) / float64(test.Len())
	if err := sw.Wait(); err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the E2 table.
func (r *E2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E2 nano-confinement surrogate (%d runs, %d train / %d test)\n", r.Runs, r.TrainN, r.TestN)
	fmt.Fprintf(&b, "  %-10s %-10s %-10s %-8s\n", "target", "MAE", "RMSE", "R2")
	for j, name := range r.Targets {
		fmt.Fprintf(&b, "  %-10s %-10.4g %-10.4g %-8.4f\n", name, r.MAE[j], r.RMSE[j], r.R2[j])
	}
	fmt.Fprintf(&b, "  Tseq=%.4gs Tlookup=%.3gs  speedup(Tseq/Tlookup)=%.4g (paper: ~1e5)\n",
		r.MeanSimSeconds, r.MeanLookupSeconds, r.SpeedupFactor)
	fmt.Fprintf(&b, "  sharded serving: %d shards %v  surrogate-served=%.0f%%  Tlookup=%.3gs/row\n",
		r.Shards, r.ShardSizes, 100*r.ShardedServedFrac, r.ShardedLookupSecond)
	return b.String()
}

// E3Result is the MLautotuning table.
type E3Result struct {
	Samples      int
	TestPoints   int
	MeanChosenDt float64
	MeanBestDt   float64
	AcceptRate   float64 // fraction of tunings whose chosen dt is stable
	DtEfficiency float64 // chosen/best dt ratio averaged over test points
}

// E3Autotune reproduces the MLautotuning exemplar (§III-D, ref [9]): learn
// the quality of (system params, dt) pairs from short probe simulations,
// then pick the largest dt predicted to keep the run accurate. D=6
// features (5 system + dt), 3 outputs (temperature error, escape flag,
// profile drift), as in the paper's 6→30→48→3 network.
func E3Autotune(scale Scale) (*E3Result, error) {
	rng := xrand.New(43)
	cfg := md.DefaultConfig()
	cfg.L = 7
	probeSteps := pick(scale, 300, 1200)

	// Quality probe: run `probeSteps` at dt and report
	// (temperature error, escape/blowup flag, mid-density drift vs ref).
	quality := func(p md.Params, dt float64, seed uint64) ([]float64, error) {
		c := cfg
		c.Dt = dt
		c.Seed = seed
		sys, err := md.NewSystem(p, c)
		if err != nil {
			return nil, err
		}
		res, err := sys.Run(context.Background(), md.RunConfig{
			EquilSteps: probeSteps / 3, SampleSteps: probeSteps, SampleEvery: 5, Bins: 20,
		})
		if err != nil {
			return nil, err
		}
		tempErr := math.Abs(res.MeanTemperature - 1)
		blowup := 0.0
		if math.IsNaN(res.MeanTemperature) || tempErr > 3 {
			blowup = 1
			tempErr = 3
		}
		return []float64{tempErr, blowup, res.MidDensity}, nil
	}

	dtGrid := []float64{0.002, 0.005, 0.01, 0.02, 0.035, 0.05, 0.07, 0.09}
	nParams := pick(scale, 10, 60)
	lo := []float64{4, 1, 1, 0.03, 0.8}
	hi := []float64{8, 2, 2, 0.10, 1.2}
	design := data.LatinHypercube(nParams, 5, lo, hi, rng)
	quantizeValencies(design)

	x := tensor.NewMatrix(0, 6)
	y := tensor.NewMatrix(0, 3)
	for i := 0; i < design.Rows; i++ {
		p := md.Params{H: design.At(i, 0), Zp: int(design.At(i, 1)), Zn: int(design.At(i, 2)), C: design.At(i, 3), D: design.At(i, 4)}
		for _, dt := range dtGrid {
			q, err := quality(p, dt, rng.Uint64())
			if err != nil {
				return nil, err
			}
			x.Data = append(x.Data, append(append([]float64(nil), design.Row(i)...), dt)...)
			x.Rows++
			y.Data = append(y.Data, q...)
			y.Rows++
		}
	}
	sur := core.NewNNSurrogate(6, 3, []int{30, 48}, 0, rng)
	sur.Epochs = pick(scale, 200, 500)
	tuner := core.NewAutotuner(sur, 5, 1)
	if err := tuner.Fit(x, y); err != nil {
		return nil, err
	}

	// Evaluate on fresh parameter points: compare tuned dt against the
	// measured largest stable dt.
	const tempTol = 0.12
	nTest := pick(scale, 4, 15)
	testDesign := data.LatinHypercube(nTest, 5, lo, hi, rng)
	quantizeValencies(testDesign)
	cands := tensor.NewMatrix(len(dtGrid), 1)
	for i, dt := range dtGrid {
		cands.Set(i, 0, dt)
	}
	res := &E3Result{Samples: x.Rows, TestPoints: nTest}
	accepted := 0
	effSum, chosenSum, bestSum := 0.0, 0.0, 0.0
	for i := 0; i < nTest; i++ {
		simP := testDesign.Row(i)
		ctl, err := tuner.Tune(simP, cands,
			func(q []float64) bool { return q[0] < tempTol && q[1] < 0.5 },
			func(c []float64) float64 { return c[0] })
		if err != nil {
			// No candidate passes: count as rejection with smallest dt.
			ctl = []float64{dtGrid[0]}
		}
		chosen := ctl[0]
		// Ground truth: scan the grid with real probes.
		p := md.Params{H: simP[0], Zp: int(simP[1]), Zn: int(simP[2]), C: simP[3], D: simP[4]}
		best := dtGrid[0]
		var chosenStable bool
		for _, dt := range dtGrid {
			q, err := quality(p, dt, rng.Uint64())
			if err != nil {
				return nil, err
			}
			stable := q[0] < tempTol && q[1] < 0.5
			if stable && dt > best {
				best = dt
			}
			if dt == chosen {
				chosenStable = stable
			}
		}
		if chosenStable {
			accepted++
		}
		chosenSum += chosen
		bestSum += best
		effSum += chosen / best
	}
	res.AcceptRate = float64(accepted) / float64(nTest)
	res.MeanChosenDt = chosenSum / float64(nTest)
	res.MeanBestDt = bestSum / float64(nTest)
	res.DtEfficiency = effSum / float64(nTest)
	return res, nil
}

// String renders the E3 table.
func (r *E3Result) String() string {
	return fmt.Sprintf(
		"E3 MLautotuning (%d training samples, %d test points)\n"+
			"  mean chosen dt=%.4g  mean best stable dt=%.4g\n"+
			"  stable-choice rate=%.0f%%  dt efficiency (chosen/best)=%.2f\n",
		r.Samples, r.TestPoints, r.MeanChosenDt, r.MeanBestDt,
		100*r.AcceptRate, r.DtEfficiency)
}
