package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// AcquisitionStrategy selects which pool points an active learner queries
// next.
type AcquisitionStrategy int

// Available acquisition strategies.
const (
	// AcquireRandom picks pool points uniformly (the baseline).
	AcquireRandom AcquisitionStrategy = iota
	// AcquireMaxUncertainty picks the points with the largest predictive
	// std — the paper's AL narrative ("iteratively adding training data
	// calculations for regions of chemical space where the current ML
	// model could not make good predictions", §II-C2).
	AcquireMaxUncertainty
)

// String returns the strategy name.
func (s AcquisitionStrategy) String() string {
	if s == AcquireMaxUncertainty {
		return "max-uncertainty"
	}
	return "random"
}

// ALRound records one active-learning iteration for learning curves.
type ALRound struct {
	Samples int     // cumulative training-set size after the round
	TestMAE float64 // mean MAE across outputs on the held-out test set
}

// ActiveLearner drives pool-based active learning around an Oracle.
type ActiveLearner struct {
	Oracle    Oracle
	Surrogate Surrogate
	Strategy  AcquisitionStrategy
	// InitialSamples seeds the first fit; BatchSize points are acquired
	// per round up to MaxSamples.
	InitialSamples int
	BatchSize      int
	MaxSamples     int
	rng            *xrand.Rand
}

// NewActiveLearner constructs an active learner with sane defaults.
func NewActiveLearner(o Oracle, s Surrogate, strat AcquisitionStrategy, rng *xrand.Rand) *ActiveLearner {
	return &ActiveLearner{
		Oracle: o, Surrogate: s, Strategy: strat,
		InitialSamples: 20, BatchSize: 10, MaxSamples: 200, rng: rng,
	}
}

// Run learns from the candidate pool, evaluating on (testX, testY) after
// each round, and returns the learning curve. Pool rows consumed by
// acquisition are not revisited.
func (a *ActiveLearner) Run(pool *tensor.Matrix, testX, testY *tensor.Matrix) ([]ALRound, error) {
	if pool.Rows < a.InitialSamples {
		return nil, fmt.Errorf("core: pool size %d < initial samples %d", pool.Rows, a.InitialSamples)
	}
	available := a.rng.Perm(pool.Rows)
	in, out := a.Oracle.Dims()
	trainX := tensor.NewMatrix(0, in)
	trainY := tensor.NewMatrix(0, out)

	acquire := func(idx []int) error {
		for _, id := range idx {
			x := pool.Row(id)
			y, err := a.Oracle.Run(x)
			if err != nil {
				return fmt.Errorf("core: AL oracle run: %w", err)
			}
			trainX.Data = append(trainX.Data, x...)
			trainX.Rows++
			trainY.Data = append(trainY.Data, y...)
			trainY.Rows++
		}
		return nil
	}

	// Seed round.
	if err := acquire(available[:a.InitialSamples]); err != nil {
		return nil, err
	}
	available = available[a.InitialSamples:]

	var curve []ALRound
	for {
		if err := a.Surrogate.Train(trainX, trainY); err != nil {
			return curve, err
		}
		curve = append(curve, ALRound{Samples: trainX.Rows, TestMAE: a.testMAE(testX, testY)})
		if trainX.Rows >= a.MaxSamples || len(available) == 0 {
			return curve, nil
		}
		batch := a.BatchSize
		if batch > len(available) {
			batch = len(available)
		}
		var chosen []int
		switch a.Strategy {
		case AcquireMaxUncertainty:
			type cand struct {
				pos int
				unc float64
			}
			cands := make([]cand, len(available))
			for i, id := range available {
				_, sd := PredictWithUQ(a.Surrogate, pool.Row(id))
				cands[i] = cand{pos: i, unc: maxOf(sd)}
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i].unc > cands[j].unc })
			taken := map[int]bool{}
			for _, c := range cands[:batch] {
				chosen = append(chosen, available[c.pos])
				taken[c.pos] = true
			}
			var rest []int
			for i, id := range available {
				if !taken[i] {
					rest = append(rest, id)
				}
			}
			available = rest
		default: // AcquireRandom
			chosen = append(chosen, available[:batch]...)
			available = available[batch:]
		}
		if err := acquire(chosen); err != nil {
			return curve, err
		}
	}
}

func (a *ActiveLearner) testMAE(testX, testY *tensor.Matrix) float64 {
	if testX == nil || testX.Rows == 0 {
		return math.NaN()
	}
	var pred tensor.Matrix
	a.Surrogate.PredictInto(testX, &pred, nil)
	// Equal-length columns: the mean of per-output MAEs is the MAE over
	// every element.
	return stats.MAE(pred.Data, testY.Data)
}

// SamplesToReachMAE returns the training-set size at which the learning
// curve first reaches the target MAE, or -1 if it never does. Used to
// compare acquisition strategies (experiment E6: AL should need ~10% of
// the random baseline's data).
func SamplesToReachMAE(curve []ALRound, target float64) int {
	for _, r := range curve {
		if r.TestMAE <= target {
			return r.Samples
		}
	}
	return -1
}

// Autotuner implements MLautotuning (§I, §III-D / ref [9]): it learns the
// map from (simulation parameters ++ control parameters) to a quality
// score, then selects, for given simulation parameters, the control
// setting that maximizes an objective subject to predicted quality
// remaining acceptable — e.g. the largest stable timestep dt.
type Autotuner struct {
	Surrogate Surrogate
	nSim      int // leading simulation-parameter count
	nCtl      int // trailing control-parameter count
}

// NewAutotuner builds an autotuner whose surrogate consumes nSim
// simulation parameters followed by nCtl control parameters.
func NewAutotuner(s Surrogate, nSim, nCtl int) *Autotuner {
	return &Autotuner{Surrogate: s, nSim: nSim, nCtl: nCtl}
}

// Fit trains the quality model on rows of [simParams ++ ctlParams] → quality.
func (t *Autotuner) Fit(x, y *tensor.Matrix) error {
	if x.Cols != t.nSim+t.nCtl {
		return fmt.Errorf("core: autotuner expects %d features, got %d", t.nSim+t.nCtl, x.Cols)
	}
	return t.Surrogate.Train(x, y)
}

// Tune returns the candidate control setting with the highest objective
// among those whose predicted quality passes accept, or an error when no
// candidate passes. candidates rows are control-parameter vectors.
func (t *Autotuner) Tune(simParams []float64, candidates *tensor.Matrix,
	accept func(quality []float64) bool, objective func(ctl []float64) float64) ([]float64, error) {
	if len(simParams) != t.nSim {
		return nil, fmt.Errorf("core: expected %d sim params, got %d", t.nSim, len(simParams))
	}
	if candidates.Cols != t.nCtl {
		return nil, fmt.Errorf("core: expected %d control params, got %d", t.nCtl, candidates.Cols)
	}
	best := -1
	bestObj := math.Inf(-1)
	feat := make([]float64, t.nSim+t.nCtl)
	copy(feat, simParams)
	for i := 0; i < candidates.Rows; i++ {
		ctl := candidates.Row(i)
		copy(feat[t.nSim:], ctl)
		q := Predict(t.Surrogate, feat)
		if !accept(q) {
			continue
		}
		if obj := objective(ctl); obj > bestObj {
			bestObj = obj
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("core: no candidate control setting passes the quality gate")
	}
	out := make([]float64, t.nCtl)
	copy(out, candidates.Row(best))
	return out, nil
}

// Controller implements MLControl (§I): objective-driven selection of the
// next experiment using the surrogate's mean and uncertainty in real time,
// via an upper-confidence-bound acquisition over a candidate set.
type Controller struct {
	Surrogate Surrogate
	// Kappa balances exploitation (0) against exploration.
	Kappa float64
	// Objective converts a predicted output vector into a scalar score to
	// maximize.
	Objective func(y []float64) float64
}

// Next returns the candidate row index maximizing
// Objective(mean) + Kappa·max(std): the surrogate's real-time prediction
// (§I: "the simulation surrogates are very valuable to allow real-time
// predictions") steering the campaign.
func (c *Controller) Next(candidates *tensor.Matrix) int {
	best, bestScore := -1, math.Inf(-1)
	for i := 0; i < candidates.Rows; i++ {
		mean, std := PredictWithUQ(c.Surrogate, candidates.Row(i))
		score := c.Objective(mean) + c.Kappa*maxOf(std)
		if score > bestScore {
			bestScore = score
			best = i
		}
	}
	return best
}
