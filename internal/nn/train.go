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
	m, v       []*tensor.Matrix
}

const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

// NewAdam returns an Adam optimizer with learning rate lr.
func NewAdam(lr float64) *Adam { return &Adam{LR: lr} }

// Step applies one update from params' accumulated gradients: one fused
// sweep per parameter matrix (tensor.AdamStep) over the preallocated m/v
// buffers; after the first call, which allocates those buffers, Step
// performs zero heap allocations.
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
	a.pow1 *= adamBeta1
	a.pow2 *= adamBeta2
	invC1 := 1 / (1 - a.pow1)
	invC2 := 1 / (1 - a.pow2)
	for i, p := range params {
		tensor.AdamStep(p.Value.Data, p.Grad.Data, a.m[i].Data, a.v[i].Data,
			a.LR, adamBeta1, adamBeta2, adamEps, invC1, invC2)
	}
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

// stage is one Dense of a fit's step program, the live Dropout behind it if
// any, and their arena matrices: x is the stage before's out, out is z
// without a Dropout, dx is nil on stage 0.
type stage struct {
	d                          *Dense
	dr                         *Dropout
	x, z, out, mask, delta, dx *tensor.Matrix
	words                      []uint64
}

// program is what Fit lowers the layer graph into, once a call: the stages
// and every float a minibatch step touches — the parameters and their
// gradients included — carved from one slab that dies with the fit.
type program struct {
	stages    []stage
	x, y, g   *tensor.Matrix   // gathered minibatch, its targets, the loss gradient
	batch     []*tensor.Matrix // every matrix with a row per minibatch sample
	val, grad *tensor.Matrix   // all parameters, Params() order: the optimizer's one pair
	own       [][]float64      // the network's own value and gradient storage, alternating
}

// lower builds the step program for minibatches of up to rows rows and moves
// the parameters into its slab, every matrix of which starts a cache line.
func (n *Network) lower(x, y *tensor.Matrix, rows int) (*program, error) {
	params := n.Params()
	p := &program{stages: make([]stage, 0, len(n.Layers)), own: make([][]float64, 0, 2*len(params))}
	mats := make([]*tensor.Matrix, 0, 5+5*len(n.Layers))
	total := 0
	add := func(rows, cols int) *tensor.Matrix {
		mats = append(mats, &tensor.Matrix{Rows: rows, Cols: cols})
		total += (rows*cols + 7) &^ 7
		return mats[len(mats)-1]
	}
	p.x, p.y, p.g = add(rows, x.Cols), add(rows, y.Cols), add(rows, y.Cols)
	cur := p.x
	var st *stage // the last one, until the next Dense appends
	for _, l := range n.Layers {
		switch ly := l.(type) {
		case *Dense:
			p.stages = append(p.stages, stage{d: ly, x: cur, z: add(rows, ly.Out), delta: add(rows, ly.Out)})
			st = &p.stages[len(p.stages)-1]
			if len(p.stages) > 1 {
				st.dx = add(rows, ly.In)
			}
			cur, st.out = st.z, st.z
		case *Dropout:
			if ly.P == 0 {
				continue
			}
			if st == nil || st.dr != nil {
				return nil, errors.New("nn: Fit needs a Dense layer in front of every Dropout")
			}
			st.dr, st.mask, st.out = ly, add(rows, cur.Cols), add(rows, cur.Cols)
			st.words = make([]uint64, (rows*cur.Cols+1)/2)
			cur = st.out
		default:
			return nil, fmt.Errorf("nn: Fit cannot train a %T layer", l)
		}
	}
	p.batch = mats
	np := n.NumParams()
	p.val, p.grad = add(1, np), add(1, np)
	slab := make([]float64, total)
	for _, m := range mats {
		k := m.Rows * m.Cols
		m.Data, slab = slab[:k:k], slab[(k+7)&^7:]
	}
	off := 0
	for _, pr := range params {
		k := off + len(pr.Value.Data)
		p.own = append(p.own, pr.Value.Data, pr.Grad.Data)
		pr.Value.Data, pr.Grad.Data = p.val.Data[off:k:k], p.grad.Data[off:k:k]
		copy(pr.Value.Data, p.own[len(p.own)-2])
		copy(pr.Grad.Data, p.own[len(p.own)-1])
		off = k
	}
	return p, nil
}

// release moves the parameters and the last step's gradients back home.
func (p *program) release(n *Network) {
	for i, pr := range n.Params() {
		copy(p.own[2*i], pr.Value.Data)
		copy(p.own[2*i+1], pr.Grad.Data)
		pr.Value.Data, pr.Grad.Data = p.own[2*i], p.own[2*i+1]
	}
}

// step runs one minibatch, the rows idx of x and y — forward, mean squared
// error and, if that is finite, backward into grad — and returns the loss.
func (p *program) step(x, y *tensor.Matrix, idx []int, rng *xrand.Rand) float64 {
	if len(idx) != p.g.Rows {
		for _, m := range p.batch {
			m.Reshape(len(idx), m.Cols)
		}
	}
	tensor.GatherRowsInto(p.x, x, idx)
	tensor.GatherRowsInto(p.y, y, idx)
	for i := range p.stages {
		st := &p.stages[i]
		st.d.forwardInto(st.z, st.x)
		if st.dr != nil {
			st.dr.maskInto(st.out, st.mask, st.words, st.z, rng)
		}
	}
	pred := p.stages[len(p.stages)-1].out
	v, g := MSE{}.Value(pred, p.y), MSE{}.Grad(p.g, pred, p.y)
	for i := len(p.stages) - 1; i >= 0 && !math.IsNaN(v) && !math.IsInf(v, 0); i-- {
		st := &p.stages[i]
		st.d.backInto(st.dx, st.delta, g, st.mask, st.x, st.z)
		g = st.dx
	}
	return v
}

// Fit trains the network on inputs x and targets y (row-aligned) by Adam
// on the mean squared error and returns the loss history. It shuffles each
// epoch, runs minibatches, and fails fast with ErrDiverged if the loss or
// any parameter becomes non-finite.
//
// The epochs run a step program the layer graph is lowered into once. A
// Layer from outside this package, or a Dropout no Dense precedes, has no
// program and Fit returns an error. Adam is stepped with one ParamPair that
// holds every parameter of the network.
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
	rng := xrand.New(cfg.Seed + 0x5eed)
	perm := rng.Perm(x.Rows)

	// Every buffer is made here, at the largest batch; an epoch allocates none.
	p, err := n.lower(x, y, min(cfg.BatchSize, x.Rows))
	if err != nil {
		return nil, err
	}
	defer p.release(n)
	params := []ParamPair{{p.val, p.grad}}
	hist := &History{TrainLoss: make([]float64, 0, cfg.Epochs)}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for i := len(perm) - 1; i > 0; i-- { // rng.Shuffle, without the call per swap
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		epochLoss, batches := 0.0, 0
		for start := 0; start < len(perm); start += cfg.BatchSize {
			idx := perm[start:min(start+cfg.BatchSize, len(perm))]
			loss := p.step(x, y, idx, n.rng)
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				return hist, ErrDiverged
			}
			epochLoss += loss
			batches++
			cfg.Optimizer.Step(params)
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
		hist.TrainLoss = append(hist.TrainLoss, epochLoss/float64(batches))
	}
	if tensor.HasNaN(p.val) {
		return hist, ErrDiverged
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
