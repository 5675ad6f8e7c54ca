package core

import (
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// This file implements bounded training-set retention. The MLaroundHPC
// loop accumulates every oracle fallback as training data ("no run is
// wasted"), which on a long-running server grows without bound: refits
// become O(total history) and eventually dominate the maintenance cost
// that sustained serving must keep bounded. A Retention policy caps the
// retained window so every refit stays O(window), trading history either
// for recency (sliding window) or for a uniform sample of everything ever
// seen (reservoir sampling).

// RetentionPolicy selects how samples beyond the window are retired.
type RetentionPolicy int

const (
	// RetainAll keeps every sample: the unbounded historical behaviour and
	// the zero value.
	RetainAll RetentionPolicy = iota
	// RetainWindow keeps (amortized) the most recent MaxSamples samples:
	// the right policy when the oracle drifts or traffic moves, since
	// refits then track the live distribution.
	RetainWindow
	// RetainReservoir keeps a uniform random sample of MaxSamples drawn
	// from the entire history (Vitter's Algorithm R): the right policy for
	// a stationary oracle, where coverage of the whole input space matters
	// more than recency.
	RetainReservoir
)

// String returns the policy name.
func (p RetentionPolicy) String() string {
	switch p {
	case RetainWindow:
		return "window"
	case RetainReservoir:
		return "reservoir"
	default:
		return "all"
	}
}

// Retention bounds the training window of each ShardedWrapper shard.
// The zero value retains everything.
type Retention struct {
	// Policy selects the retirement strategy; RetainAll ignores MaxSamples.
	Policy RetentionPolicy
	// MaxSamples is the retained window size. The wrapper raises it to at
	// least its MinTrainSamples so the first-fit gate stays
	// reachable. RetainWindow keeps up to 25% slack above it (dropping the
	// oldest rows in amortized batches rather than memmoving per sample);
	// RetainReservoir holds it exactly once full.
	MaxSamples int
}

// bounded reports whether the policy actually caps the window.
func (r Retention) bounded() bool {
	return r.Policy != RetainAll && r.MaxSamples > 0
}

// windowBounds is RetainWindow's one trim rule: a window that reaches
// limit rows cuts back to its newest keep rows. The overhang it lets build
// (limit − keep, 25 % of MaxSamples, at least one row) is what amortizes
// the cut's memmove over many adds. retainer.add applies the rule and
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

// retainer applies one Retention policy to a paired (xs, ys) sample
// store. Callers hold whatever lock guards the store.
type retainer struct {
	cfg  Retention
	rng  *xrand.Rand // reservoir replacement stream (nil otherwise)
	seen int         // samples ever offered (reservoir index base)
}

// newRetainer builds a retainer; seed drives the reservoir stream.
func newRetainer(cfg Retention, seed uint64) retainer {
	if !cfg.bounded() {
		cfg = Retention{}
	}
	r := retainer{cfg: cfg}
	if cfg.Policy == RetainReservoir {
		r.rng = xrand.New(seed)
	}
	return r
}

// add offers one (x, y) sample to the store under the configured policy.
func (r *retainer) add(xs, ys *tensor.Matrix, x, y []float64) {
	r.seen++
	switch r.cfg.Policy {
	case RetainWindow:
		xs.AppendRow(x)
		ys.AppendRow(y)
		// Amortized trim: let the window overshoot and drop the oldest
		// overhang in one memmove, so the per-sample cost stays O(1) while
		// refits stay O(MaxSamples).
		if keep, limit := r.cfg.windowBounds(); xs.Rows >= limit {
			dropOldestRows(xs, xs.Rows-keep)
			dropOldestRows(ys, ys.Rows-keep)
		}
	case RetainReservoir:
		if xs.Rows < r.cfg.MaxSamples {
			xs.AppendRow(x)
			ys.AppendRow(y)
			return
		}
		// Algorithm R: the i-th sample ever seen replaces a uniformly
		// random slot with probability MaxSamples/i, keeping the reservoir
		// a uniform sample of the full history.
		if j := r.rng.Intn(r.seen); j < r.cfg.MaxSamples {
			copy(xs.Row(j), x)
			copy(ys.Row(j), y)
		}
	default:
		xs.AppendRow(x)
		ys.AppendRow(y)
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
