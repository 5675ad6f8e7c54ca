// Package data provides the dataset container and the train/test plumbing
// the paper's exemplars use: the nano-confinement surrogate's 6864-run
// corpus with its 70/30 split (§III-D), and the Latin-hypercube design
// that samples its control-parameter space.
package data

import (
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Dataset pairs a feature matrix X with a target matrix Y, row-aligned.
type Dataset struct {
	X, Y *tensor.Matrix
	// FeatureNames and TargetNames are optional column labels.
	FeatureNames []string
	TargetNames  []string
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Rows }

// Append adds one sample. It reallocates, so batch construction should use
// the matrix constructors directly; Append exists for online accumulation
// in MLaroundHPC wrappers where "no run is wasted" (§II-C1).
func (d *Dataset) Append(x, y []float64) {
	if d.X == nil {
		d.X = tensor.NewMatrix(0, len(x))
		d.Y = tensor.NewMatrix(0, len(y))
	}
	if len(x) != d.X.Cols || len(y) != d.Y.Cols {
		panic("data: append dimension mismatch")
	}
	d.X.Data = append(d.X.Data, x...)
	d.X.Rows++
	d.Y.Data = append(d.Y.Data, y...)
	d.Y.Rows++
}

// Subset returns a new dataset containing the given row indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	x := tensor.NewMatrix(len(idx), d.X.Cols)
	y := tensor.NewMatrix(len(idx), d.Y.Cols)
	for i, id := range idx {
		copy(x.Row(i), d.X.Row(id))
		copy(y.Row(i), d.Y.Row(id))
	}
	return &Dataset{X: x, Y: y, FeatureNames: d.FeatureNames, TargetNames: d.TargetNames}
}

// Split partitions the dataset into train and test subsets with the given
// training fraction, shuffling with rng. The paper's exemplars use
// trainFrac=0.7 ("70% of total 6864 runs with 30% ... used for testing").
func (d *Dataset) Split(trainFrac float64, rng *xrand.Rand) (train, test *Dataset) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic("data: train fraction must be in (0,1)")
	}
	perm := rng.Perm(d.Len())
	nTrain := int(trainFrac * float64(d.Len()))
	return d.Subset(perm[:nTrain]), d.Subset(perm[nTrain:])
}

// LatinHypercube draws n points from the unit hypercube of the given
// dimension with one point per axis stratum, then maps each column k to
// [lo[k], hi[k]]. It is the space-filling design used when a full grid is
// too expensive.
func LatinHypercube(n, dim int, lo, hi []float64, rng *xrand.Rand) *tensor.Matrix {
	if len(lo) != dim || len(hi) != dim {
		panic("data: bounds length mismatch")
	}
	out := tensor.NewMatrix(n, dim)
	for j := 0; j < dim; j++ {
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			u := (float64(perm[i]) + rng.Float64()) / float64(n)
			out.Set(i, j, lo[j]+u*(hi[j]-lo[j]))
		}
	}
	return out
}
