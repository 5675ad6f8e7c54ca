package core

import (
	"math"

	"repro/internal/tensor"
)

// This file extends drift tracking (ShardedConfig.DriftFactor) to the
// query path's oracle fallbacks, in one fold: after a query's fallback
// rows have their oracle truth, foldFallbackResiduals scores the shard's
// published model on them in one batched UQ pass and folds the residuals
// into the drift EWMA. But the fallback stream is biased by construction:
// these are exactly the points the model is least certain about, so even
// a perfectly calibrated, undrifted model shows residuals far above its
// in-sample baseline there. Folding them in raw would trip the drift flag
// on every uncertain regime.
//
// The correction normalizes each rejected residual by what the model
// itself predicted it would be: a Gaussian predictive distribution with
// std σ expects |y − mean| = σ·√(2/π). A calibrated model's rejected
// residual therefore folds in at ≈ the baseline (drift ratio 1, no
// trip); a drifted model's residual exceeds its own predicted
// uncertainty and folds in proportionally above it.

// expectedAbsFactor is √(2/π): E|N(0,σ)| = σ·√(2/π).
var expectedAbsFactor = math.Sqrt(2 / math.Pi)

// correctedResid rescales a UQ-rejected fallback residual into baseline
// units. expAbs is the model's own expected absolute residual at the
// point (mean predicted σ times √(2/π)); base is the shard's
// publish-time baseline. When the model expects residuals above the
// baseline (the usual case for a rejected point), the observation is
// scaled down by exactly that inflation; a model whose uncertainty sits
// at or below the baseline needs no correction.
func correctedResid(resid, expAbs, base float64) float64 {
	b := flooredBase(base)
	if expAbs > b {
		return resid * b / expAbs
	}
	return resid
}

// foldFallbackResiduals is that fold: for the shard's successfully
// oracle-answered rows of one query (Query or QueryBatchInto), it
// recomputes the published model's predictions with UQ in one batched
// pass and folds the bias-corrected residuals into the drift EWMA. The
// (model, generation) pair is captured before the pass and re-checked
// under the shard lock, exactly like Ingest's bulk residuals, so a
// publish racing the computation discards it instead of polluting the
// new model's EWMA. The extra surrogate pass only covers rows that
// already paid for an oracle run.
func (w *ShardedWrapper) foldFallbackResiduals(s *shard, xs *tensor.Matrix, idx []int, res []BatchResult) {
	var rows []int
	for _, i := range idx {
		if res[i].Src == FromSimulation && res[i].Err == nil {
			rows = append(rows, i)
		}
	}
	if len(rows) == 0 {
		return
	}
	s.mu.Lock()
	surp := s.active.Load()
	gen := s.publishedGen
	s.mu.Unlock()
	if surp == nil {
		return
	}
	var mean, std tensor.Matrix
	(*surp).PredictInto(tensor.GatherRowsInto(nil, xs, rows), &mean, &std)
	resids := make([]float64, len(rows))
	exps := make([]float64, len(rows))
	for k, i := range rows {
		resids[k] = meanAbsDiff(mean.Row(k), res[i].Y)
		exps[k] = meanOf(std.Row(k)) * expectedAbsFactor
	}
	s.mu.Lock()
	if s.publishedGen == gen {
		for k := range rows {
			s.observeResidualLocked(correctedResid(resids[k], exps[k], s.residBase), w.cfg.DriftFactor)
		}
	}
	s.mu.Unlock()
}

// meanOf is the arithmetic mean of xs (0 for an empty slice).
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}
