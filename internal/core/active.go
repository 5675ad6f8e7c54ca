package core

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

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
