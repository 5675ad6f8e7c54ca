package nn

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Optimizer updates parameters from accumulated gradients.
type Optimizer interface {
	Step(params []ParamPair)
	Name() string
}

// SGD is stochastic gradient descent with optional classical momentum.
type SGD struct {
	LR       float64
	Momentum float64
	velocity []*tensor.Matrix
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD { return &SGD{LR: lr, Momentum: momentum} }

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// Step implements Optimizer. The velocity update and parameter step are
// fused into one pass per parameter matrix over the preallocated velocity
// buffers (the same treatment Adam.Step got); after the first call, which
// allocates those buffers, Step performs zero heap allocations.
func (s *SGD) Step(params []ParamPair) {
	if s.velocity == nil {
		s.velocity = make([]*tensor.Matrix, len(params))
		for i, p := range params {
			s.velocity[i] = tensor.NewMatrix(p.Value.Rows, p.Value.Cols)
		}
	}
	for i, p := range params {
		sgdStep(p.Value.Data, p.Grad.Data, s.velocity[i].Data, s.LR, s.Momentum)
	}
}

// sgdStep applies one fused momentum-SGD update in a single sweep. The
// momentum-free case skips the velocity traffic entirely: v stays zero
// and the update degenerates to a plain axpy, halving the memory streams.
func sgdStep(val, grad, v []float64, lr, momentum float64) {
	grad = grad[:len(val)] // bounds-check elimination hints
	if momentum == 0 {
		for k := range val {
			val[k] -= lr * grad[k]
		}
		return
	}
	v = v[:len(val)]
	for k := range val {
		vk := momentum*v[k] - lr*grad[k]
		v[k] = vk
		val[k] += vk
	}
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	pow1, pow2            float64 // Beta1^t and Beta2^t, as running products
	m, v                  []*tensor.Matrix
}

// NewAdam returns an Adam optimizer with standard defaults for any zero
// hyperparameter.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// Step implements Optimizer: one fused sweep per parameter matrix
// (tensor.AdamStep) over the preallocated m/v buffers; after the first
// call, which allocates those buffers, Step performs zero heap allocations.
func (a *Adam) Step(params []ParamPair) {
	if a.m == nil {
		a.m = make([]*tensor.Matrix, len(params))
		a.v = make([]*tensor.Matrix, len(params))
		for i, p := range params {
			a.m[i] = tensor.NewMatrix(p.Value.Rows, p.Value.Cols)
			a.v[i] = tensor.NewMatrix(p.Value.Rows, p.Value.Cols)
		}
		a.pow1, a.pow2 = 1, 1
	}
	a.pow1 *= a.Beta1
	a.pow2 *= a.Beta2
	invC1 := 1 / (1 - a.pow1)
	invC2 := 1 / (1 - a.pow2)
	for i, p := range params {
		tensor.AdamStep(p.Value.Data, p.Grad.Data, a.m[i].Data, a.v[i].Data,
			a.LR, a.Beta1, a.Beta2, a.Eps, invC1, invC2)
	}
}

// TrainConfig controls Fit.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	Loss      Loss
	// ValFrac holds out this fraction of the data for validation-based
	// early stopping (0 disables).
	ValFrac float64
	// Patience is the number of epochs without validation improvement
	// tolerated before stopping early (0 disables early stopping).
	Patience int
	// Verbose, if non-nil, receives one line per epoch.
	Verbose func(epoch int, trainLoss, valLoss float64)
	// Seed controls shuffling; independent of network init.
	Seed uint64
}

// History records per-epoch losses from a Fit call.
type History struct {
	TrainLoss []float64
	ValLoss   []float64 // empty when ValFrac == 0
	Stopped   int       // epoch at which early stopping triggered, or -1
}

// ErrDiverged is returned when training produced non-finite parameters.
var ErrDiverged = errors.New("nn: training diverged (non-finite loss or parameters)")

// Fit trains the network on inputs x and targets y (row-aligned) and
// returns the loss history. It shuffles each epoch, supports minibatches,
// optional validation split and early stopping, and fails fast with
// ErrDiverged if the loss or any parameter becomes non-finite.
func (n *Network) Fit(x, y *tensor.Matrix, cfg TrainConfig) (*History, error) {
	if x.Rows != y.Rows {
		return nil, fmt.Errorf("nn: x has %d rows, y has %d", x.Rows, y.Rows)
	}
	if x.Rows == 0 {
		return nil, errors.New("nn: empty training set")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 100
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = NewAdam(1e-3)
	}
	if cfg.Loss == nil {
		cfg.Loss = MSE{}
	}
	rng := xrand.New(cfg.Seed + 0x5eed)

	// Validation split.
	nVal := 0
	if cfg.ValFrac > 0 && cfg.ValFrac < 1 {
		nVal = int(cfg.ValFrac * float64(x.Rows))
	}
	perm := rng.Perm(x.Rows)
	trainIdx := perm[nVal:]
	valIdx := perm[:nVal]

	hist := &History{Stopped: -1}
	bestVal := math.Inf(1)
	sinceBest := 0

	// All per-step workspaces are allocated once and reshaped per batch
	// (tail batches shrink the row count without reallocating), so the
	// steady-state epoch loop performs no heap allocation.
	maxBatch := cfg.BatchSize
	if maxBatch > len(trainIdx) {
		maxBatch = len(trainIdx)
	}
	xb := tensor.NewMatrix(maxBatch, x.Cols)
	yb := tensor.NewMatrix(maxBatch, y.Cols)
	gb := tensor.NewMatrix(maxBatch, y.Cols)
	params := n.Params()
	var vx, vy *tensor.Matrix
	if nVal > 0 {
		vx = tensor.NewMatrix(nVal, x.Cols)
		vy = tensor.NewMatrix(nVal, y.Cols)
		for bi, idx := range valIdx {
			copy(vx.Row(bi), x.Row(idx))
			copy(vy.Row(bi), y.Row(idx))
		}
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(trainIdx), func(i, j int) { trainIdx[i], trainIdx[j] = trainIdx[j], trainIdx[i] })
		epochLoss := 0.0
		batches := 0
		for start := 0; start < len(trainIdx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(trainIdx) {
				end = len(trainIdx)
			}
			bs := end - start
			bx := xb.Reshape(bs, x.Cols)
			by := yb.Reshape(bs, y.Cols)
			for bi, idx := range trainIdx[start:end] {
				copy(bx.Row(bi), x.Row(idx))
				copy(by.Row(bi), y.Row(idx))
			}
			pred := n.Forward(bx, true)
			loss := cfg.Loss.Value(pred, by)
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				return hist, ErrDiverged
			}
			epochLoss += loss
			batches++
			n.Backward(cfg.Loss.Grad(gb.Reshape(bs, y.Cols), pred, by))
			cfg.Optimizer.Step(params)
			// Cooperative backgrounding: on oversubscribed machines a
			// refit otherwise monopolizes a core for tens of
			// milliseconds, which is exactly the serving stall the
			// double-buffered wrappers exist to avoid. One scheduler
			// yield per minibatch (~100ns against a ~100µs step) caps
			// the latency a concurrent server sees at one batch step.
			runtime.Gosched()
		}
		epochLoss /= float64(batches)
		hist.TrainLoss = append(hist.TrainLoss, epochLoss)

		valLoss := math.NaN()
		if nVal > 0 {
			valLoss = cfg.Loss.Value(n.Forward(vx, false), vy)
			hist.ValLoss = append(hist.ValLoss, valLoss)
		}
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, epochLoss, valLoss)
		}
		if nVal > 0 && cfg.Patience > 0 {
			if valLoss < bestVal-1e-12 {
				bestVal = valLoss
				sinceBest = 0
			} else {
				sinceBest++
				if sinceBest >= cfg.Patience {
					hist.Stopped = epoch
					break
				}
			}
		}
	}
	for _, p := range n.Params() {
		if tensor.HasNaN(p.Value) {
			return hist, ErrDiverged
		}
	}
	return hist, nil
}

// Scaler standardizes features to zero mean and unit variance, the
// preprocessing every exemplar surrogate applies before training.
type Scaler struct {
	Mean, Std []float64
}

// FitScaler computes per-column statistics of x.
func FitScaler(x *tensor.Matrix) *Scaler {
	s := &Scaler{Mean: make([]float64, x.Cols), Std: make([]float64, x.Cols)}
	for j := 0; j < x.Cols; j++ {
		sum := 0.0
		for i := 0; i < x.Rows; i++ {
			sum += x.At(i, j)
		}
		m := sum / float64(x.Rows)
		s.Mean[j] = m
		ss := 0.0
		for i := 0; i < x.Rows; i++ {
			d := x.At(i, j) - m
			ss += d * d
		}
		std := math.Sqrt(ss / float64(x.Rows))
		if std < 1e-12 {
			std = 1
		}
		s.Std[j] = std
	}
	return s
}

// Transform returns a standardized copy of x.
func (s *Scaler) Transform(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != len(s.Mean) {
		panic("nn: scaler dimension mismatch")
	}
	out := x.Clone()
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] = (row[j] - s.Mean[j]) / s.Std[j]
		}
	}
	return out
}

// TransformInto standardizes x into dst (reshaped to x's shape; must be
// non-nil) and returns dst. dst may alias x for in-place work. The
// allocation-free form of Transform used by pooled serving paths.
func (s *Scaler) TransformInto(dst, x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != len(s.Mean) {
		panic("nn: scaler dimension mismatch")
	}
	dst.Reshape(x.Rows, x.Cols)
	for i := 0; i < x.Rows; i++ {
		src := x.Row(i)
		out := dst.Row(i)
		for j := range src {
			out[j] = (src[j] - s.Mean[j]) / s.Std[j]
		}
	}
	return dst
}

// TransformVec standardizes a single feature vector.
func (s *Scaler) TransformVec(x []float64) []float64 {
	return s.TransformVecInto(make([]float64, len(x)), x)
}

// TransformVecInto standardizes x into dst (same length) and returns dst.
// dst may alias x for in-place standardization.
func (s *Scaler) TransformVecInto(dst, x []float64) []float64 {
	if len(x) != len(s.Mean) || len(dst) != len(x) {
		panic("nn: scaler dimension mismatch")
	}
	for j := range x {
		dst[j] = (x[j] - s.Mean[j]) / s.Std[j]
	}
	return dst
}

// Inverse maps a standardized vector back to original units.
func (s *Scaler) Inverse(x []float64) []float64 {
	out := make([]float64, len(x))
	for j := range x {
		out[j] = x[j]*s.Std[j] + s.Mean[j]
	}
	return out
}

// InverseScale maps a standardized magnitude (e.g. a predictive std) for
// output j back to original units without re-centering.
func (s *Scaler) InverseScale(j int, v float64) float64 { return v * s.Std[j] }
