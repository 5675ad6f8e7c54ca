package core

import "repro/internal/tensor"

// This file implements bounded training-set retention. The MLaroundHPC
// loop accumulates every oracle fallback as training data ("no run is
// wasted"), which on a long-running server grows without bound: refits
// become O(total history) and eventually dominate the maintenance cost
// that sustained serving must keep bounded. A Retention policy caps the
// retained window so every refit stays O(window), trading history for
// recency: a sliding window of the newest samples.

// RetentionPolicy selects how samples beyond the window are retired. The
// zero value keeps every sample: the unbounded historical behaviour.
type RetentionPolicy int

// RetainWindow keeps (amortized) the most recent MaxSamples samples: the
// right policy when the oracle drifts or traffic moves, since refits then
// track the live distribution.
const RetainWindow RetentionPolicy = 1

// String returns the policy name.
func (p RetentionPolicy) String() string {
	if p == RetainWindow {
		return "window"
	}
	return "all"
}

// Retention bounds the training window of each ShardedWrapper shard.
// The zero value retains everything.
type Retention struct {
	// Policy selects the retirement strategy; the zero policy ignores MaxSamples.
	Policy RetentionPolicy
	// MaxSamples is the retained window size. The wrapper raises it to at
	// least its MinTrainSamples so the first-fit gate stays
	// reachable. RetainWindow keeps up to 25% slack above it (dropping the
	// oldest rows in amortized batches rather than memmoving per sample).
	MaxSamples int
}

// bounded reports whether the policy actually caps the window.
func (r Retention) bounded() bool {
	return r.Policy == RetainWindow && r.MaxSamples > 0
}

// windowBounds is RetainWindow's one trim rule: a window that reaches
// limit rows cuts back to its newest keep rows. The overhang it lets build
// (limit − keep, 25 % of MaxSamples, at least one row) is what amortizes
// the cut's memmove over many adds. add applies the rule and
// windowAfter predicts it, so the two cannot disagree.
func (r Retention) windowBounds() (keep, limit int) {
	return r.MaxSamples, r.MaxSamples + max(r.MaxSamples/4, 1)
}

// windowAfter is the row count a RetainWindow window holding held rows
// (fewer than the rule's limit, as every window add leaves) ends with
// after adds more adds.
func (r Retention) windowAfter(held, adds int) int {
	keep, limit := r.windowBounds()
	if held+adds < limit {
		return held + adds
	}
	// The first cut lands on the add that reaches limit; from then on the
	// window climbs from keep and cuts again every limit − keep adds.
	return keep + (adds-(limit-held))%(limit-keep)
}

// add appends one (x, y) sample to a paired sample store under the policy.
// Callers hold whatever lock guards the store. A bounded window trims
// amortized: it overshoots and drops the oldest overhang in one memmove, so
// the per-sample cost stays O(1) while refits stay O(MaxSamples).
func (r Retention) add(xs, ys *tensor.Matrix, x, y []float64) {
	xs.AppendRow(x)
	ys.AppendRow(y)
	if !r.bounded() {
		return
	}
	if keep, limit := r.windowBounds(); xs.Rows >= limit {
		dropOldestRows(xs, xs.Rows-keep)
		dropOldestRows(ys, ys.Rows-keep)
	}
}

// dropOldestRows removes the first n rows of m in place.
func dropOldestRows(m *tensor.Matrix, n int) {
	copy(m.Data, m.Data[n*m.Cols:])
	m.Rows -= n
	m.Data = m.Data[:m.Rows*m.Cols]
}

// clampRetention raises a bounded window to at least minTrain so the
// first-fit gate (xs.Rows >= MinTrainSamples) stays reachable.
func clampRetention(r Retention, minTrain int) Retention {
	if r.bounded() && r.MaxSamples < minTrain {
		r.MaxSamples = minTrain
	}
	return r
}
