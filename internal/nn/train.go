package nn

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Adam is the Adam optimizer (Kingma & Ba) with bias correction, the one
// Fit steps. Only the learning rate is settable; β₁, β₂ and ε are Kingma &
// Ba's defaults.
type Adam struct {
	LR         float64
	pow1, pow2 float64 // adamBeta1^t and adamBeta2^t, as running products
	m, v       []float64
}

const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

// NewAdam returns an Adam optimizer with learning rate lr.
func NewAdam(lr float64) *Adam { return &Adam{LR: lr} }

// Step applies one update of the parameters val from their gradients grad
// (a Tape's Params) in one fused sweep (tensor.AdamStep). The first call
// sizes the moment buffers to val, so an optimizer steps one pair for its
// life; after that call Step performs zero heap allocations.
func (a *Adam) Step(val, grad []float64) {
	if a.m == nil {
		a.m, a.v = make([]float64, len(val)), make([]float64, len(val))
		a.pow1, a.pow2 = 1, 1
	}
	a.pow1 *= adamBeta1
	a.pow2 *= adamBeta2
	tensor.AdamStep(val, grad, a.m, a.v, a.LR, adamBeta1, adamBeta2, adamEps, 1/(1-a.pow1), 1/(1-a.pow2))
}

// TrainConfig controls Fit. Zero values take the defaults: 100 epochs,
// batches of 32, Adam at 1e-3.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Optimizer *Adam
	// Seed controls shuffling; independent of network init.
	Seed uint64
}

// History records per-epoch losses from a Fit call.
type History struct {
	TrainLoss []float64
}

// ErrDiverged is returned when training produced non-finite parameters.
var ErrDiverged = errors.New("nn: training diverged (non-finite loss or parameters)")

// Tape is a network's step program for batches of up to a fixed row
// count: Forward, Backward and the parameter/gradient pair an optimizer
// steps, over the network's own slab and one arena of activations and
// gradients made with the tape. A warmed Forward+Backward allocates
// nothing. A tape is single-threaded, like the network it trains.
type Tape struct {
	n       *Network
	stages  []stage
	grad    []float64        // the last Backward's gradients, laid out like n.slab
	batch   []*tensor.Matrix // every arena matrix with a row per sample
	maxRows int
}

// stage is one layer of a tape: views of its parameters and their
// gradients, and its arena matrices. x is the input the product reads:
// Forward's own argument on an undropped stage 0, the stage before's z on
// an undropped later one, the masked copy otherwise. mask holds the input
// dropout's multipliers (nil when p is 0), dx the gradient with respect to
// x (nil on stage 0, where Backward's caller names it).
type stage struct {
	act          Activation
	p            float64
	w, gw        tensor.Matrix
	b, gb        []float64
	x, mask      *tensor.Matrix
	z, delta, dx *tensor.Matrix
	words        []uint64
}

// Tape builds the network's step program for batches of up to maxRows rows.
// Every arena matrix starts a cache line.
func (n *Network) Tape(maxRows int) *Tape {
	t := &Tape{n: n, stages: make([]stage, len(n.layers)), maxRows: maxRows}
	total := (len(n.slab) + 7) &^ 7
	add := func(cols int) *tensor.Matrix {
		t.batch = append(t.batch, &tensor.Matrix{Rows: maxRows, Cols: cols})
		total += (maxRows*cols + 7) &^ 7
		return t.batch[len(t.batch)-1]
	}
	for i, l := range n.layers {
		st := &t.stages[i]
		st.act, st.p = l.act, l.p
		st.z, st.delta = add(l.out), add(l.out)
		if i > 0 {
			st.x, st.dx = t.stages[i-1].z, add(l.in)
		}
		if l.p > 0 {
			st.x, st.mask = add(l.in), add(l.in)
			st.words = make([]uint64, (maxRows*l.in+1)/2)
		}
	}
	arena := make([]float64, total)
	np := len(n.slab)
	t.grad, arena = arena[:np:np], arena[(np+7)&^7:]
	for _, m := range t.batch {
		k := m.Rows * m.Cols
		m.Data, arena = arena[:k:k], arena[(k+7)&^7:]
	}
	for i := range n.layers {
		l, st := &n.layers[i], &t.stages[i]
		st.w = tensor.Matrix{Rows: l.in, Cols: l.out, Data: l.weights(n.slab)}
		st.gw = tensor.Matrix{Rows: l.in, Cols: l.out, Data: l.weights(t.grad)}
		st.b, st.gb = l.bias(n.slab), l.bias(t.grad)
	}
	return t
}

// Params returns the pair an optimizer steps: the network's slab and the
// tape's gradients of it, in the same layout.
func (t *Tape) Params() (val, grad []float64) { return t.n.slab, t.grad }

// Forward runs a batch of up to the tape's row count through the network
// in training mode, drawing dropout masks from the network's stream, and
// returns the output, which the tape owns until its next Forward. x is
// read again by Backward, so the caller leaves it unchanged until then.
func (t *Tape) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Rows > t.maxRows || x.Cols != t.stages[0].w.Rows {
		panic(fmt.Sprintf("nn: tape for %d x %d batches given %d x %d", t.maxRows, t.stages[0].w.Rows, x.Rows, x.Cols))
	}
	if x.Rows != t.stages[0].z.Rows {
		for _, m := range t.batch {
			m.Reshape(x.Rows, m.Cols)
		}
	}
	in := x
	for i := range t.stages {
		st := &t.stages[i]
		switch {
		case st.mask != nil:
			// One word of the stream decides two units (tensor.DropoutMask),
			// each kept when its 32-bit lane is below (1-p)·2³².
			words := st.words[:(len(in.Data)+1)/2]
			t.n.rng.Fill(words)
			tensor.DropoutMask(st.x.Data, in.Data, st.mask.Data, words, uint64((1-st.p)*(1<<32)), 1/(1-st.p))
		case i == 0:
			st.x = x
		}
		tensor.MatMulBiasInto(st.z, st.x, &st.w, st.b)
		st.act.applyAll(st.z.Data)
		in = st.z
	}
	return in
}

// Backward takes g, the loss gradient with respect to the last Forward's
// output, and leaves that batch's parameter gradients in the tape's
// gradient slab, replacing the previous step's: a step needs no zeroing
// sweep. With a non-nil dx it also stores the gradient with respect to
// Forward's input there; a nil dx skips that product.
func (t *Tape) Backward(g, dx *tensor.Matrix) {
	for i := len(t.stages) - 1; i >= 0; i-- {
		st := &t.stages[i]
		var mask *tensor.Matrix // the dropout behind this stage's output
		if i+1 < len(t.stages) {
			mask = t.stages[i+1].mask
		}
		st.act.backSweep(st.delta.Data, st.gb, g.Data, st.z.Data, mask)
		tensor.MatMulATBInto(&st.gw, st.x, st.delta) // the loss applies the batch mean
		if i > 0 {
			tensor.MatMulABTInto(st.dx, st.delta, &st.w)
			g = st.dx
		}
	}
	if st := &t.stages[0]; dx != nil {
		tensor.MatMulABTInto(dx, st.delta, &st.w)
		if st.mask != nil {
			tensor.Hadamard(dx, dx, st.mask)
		}
	}
}

// Check is the divergence rule of every loop that trains through a tape,
// Fit's included: a non-finite loss — one step's, or a sum over steps —
// or a non-finite parameter returns ErrDiverged.
func (t *Tape) Check(loss float64) error {
	if math.IsNaN(loss) || math.IsInf(loss, 0) || tensor.HasNaN(&tensor.Matrix{Rows: 1, Cols: len(t.n.slab), Data: t.n.slab}) {
		return ErrDiverged
	}
	return nil
}

// Fit trains the network on inputs x and targets y (row-aligned) by Adam
// on the mean squared error and returns the loss history. It shuffles each
// epoch, runs minibatches through a Tape, and returns ErrDiverged at the
// end of the first epoch whose loss or parameters are not finite.
func (n *Network) Fit(x, y *tensor.Matrix, cfg TrainConfig) (*History, error) {
	if x.Rows != y.Rows {
		return nil, fmt.Errorf("nn: x has %d rows, y has %d", x.Rows, y.Rows)
	}
	if x.Rows == 0 {
		return nil, errors.New("nn: empty training set")
	}
	if in, out := n.layers[0].in, n.layers[len(n.layers)-1].out; x.Cols != in || y.Cols != out {
		return nil, fmt.Errorf("nn: x has %d columns and y %d, the network maps %d inputs to %d outputs", x.Cols, y.Cols, in, out)
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
	return n.Tape(min(cfg.BatchSize, x.Rows)).fit(x, y, cfg)
}

// fit is Fit's loop over t: gather a minibatch, forward, mean squared
// error, backward, Adam. Every buffer is made before the first epoch, so
// an epoch allocates none.
func (t *Tape) fit(x, y *tensor.Matrix, cfg TrainConfig) (*History, error) {
	rng := xrand.New(cfg.Seed + 0x5eed)
	perm := rng.Perm(x.Rows)
	bx, by, g := tensor.NewMatrix(t.maxRows, x.Cols), tensor.NewMatrix(t.maxRows, y.Cols), tensor.NewMatrix(t.maxRows, y.Cols)
	val, grad := t.Params()
	hist := &History{TrainLoss: make([]float64, 0, cfg.Epochs)}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for i := len(perm) - 1; i > 0; i-- { // rng.Shuffle, without the call per swap
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		epochLoss, batches := 0.0, 0
		for start := 0; start < len(perm); start += cfg.BatchSize {
			idx := perm[start:min(start+cfg.BatchSize, len(perm))]
			tensor.GatherRowsInto(bx, x, idx)
			tensor.GatherRowsInto(by, y, idx)
			pred := t.Forward(bx)
			epochLoss += MSE{}.Value(pred, by)
			batches++
			t.Backward(MSE{}.Grad(g.Reshape(len(idx), y.Cols), pred, by), nil)
			cfg.Optimizer.Step(val, grad)
			// Cooperative backgrounding: on oversubscribed machines a refit
			// otherwise holds a core for tens of milliseconds, the serving
			// stall the double-buffered wrappers exist to avoid. One yield
			// per minibatch caps what a concurrent server waits at one step.
			// Two non-results, not to repeat. Yielding every 8th step (the
			// yield is ~4 % of a step when both cores fit) took learn_loop's
			// slo_ok_share from 0.9993-0.9997 to 0.9917-0.9931 in 3 of 3
			// runs (0.954 in a fourth), 0.9996 again once restored. And the
			// yield is not ~100 ns when a P is idle: each Gosched wakes it
			// (runtime.futex 16 % of a lone fit's profile; TrainEpoch/serving
			// 233.7 ns/sample-epoch in BENCH_18.json, 366.4 in .cpus2.json).
			runtime.Gosched()
		}
		if err := t.Check(epochLoss); err != nil {
			return hist, err
		}
		hist.TrainLoss = append(hist.TrainLoss, epochLoss/float64(batches))
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
