// Package nn is a from-scratch feed-forward neural network library: the ML
// subsystem of the Learning Everywhere framework. The paper's exemplars use
// small dense networks (e.g. the 6→30→48→3 autotuning net of §III-D and the
// D=5 density surrogate of §II-C1) built with Keras/TensorFlow; this package
// reproduces that capability on the standard library alone, including the
// dropout machinery the paper's UQ discussion (§III-B) depends on:
// MC-dropout predictive distributions.
//
// The layer methods (Forward, Backward) are the reference, for callers that
// drive a graph themselves and for the tests. Fit runs a step program
// lowered from the layers (train.go) and inference a Compiled one
// (compile.go), each held to the layer methods bit for bit.
package nn

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Activation is a differentiable element-wise nonlinearity.
type Activation int

// Supported activations.
const (
	Identity Activation = iota
	ReLU
	Tanh
	Sigmoid
)

// String returns the activation name.
func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("activation(%d)", int(a))
	}
}

// applyAll applies the activation to every element of z in place. It is
// the one implementation every path evaluates an activation through —
// training, the compiled row and batch programs, the int8 program's
// float stage and its lookup tables — so they agree to the bit,
// on every platform (tensor.Tanh and tensor.Sigmoid are slice kernels with
// an accuracy contract, not the math package's per-target routines).
func (a Activation) applyAll(z []float64) {
	switch a {
	case ReLU:
		for i, v := range z {
			if v < 0 {
				z[i] = 0
			}
		}
	case Tanh:
		tensor.Tanh(z)
	case Sigmoid:
		tensor.Sigmoid(z)
	}
}

// backSweep is the element-wise half of a backward step in one pass over a
// batch of len(gb)-wide rows: delta = (g ⊙ mask) ⊙ f'(x) — f' in terms of
// y = f(x), which every supported activation admits, so no pre-activations
// are kept — and gb = delta's column sums. A nil mask is all ones. Tanh,
// the hidden activation of every surrogate here, is one tensor kernel call
// for the batch (tensor.TanhBackward); the others are the loops below.
func (a Activation) backSweep(delta, gb, g, y []float64, mask *tensor.Matrix) {
	if a == Tanh {
		var m []float64
		if mask != nil {
			m = mask.Data
		}
		tensor.TanhBackward(delta, gb, g, y, m)
		return
	}
	for j := range gb {
		gb[j] = 0
	}
	for lo, w := 0, len(gb); lo < len(delta); lo += w {
		d, gr, yr := delta[lo:lo+w], g[lo:lo+w], y[lo:lo+w]
		if mask != nil {
			for j, m := range mask.Data[lo : lo+w] {
				d[j] = gr[j] * m
			}
			gr = d
		}
		gr, yr, gb := gr[:len(d)], yr[:len(d)], gb[:len(d)] // bounds-check elimination hints
		switch a {
		case ReLU:
			for j := range d {
				v := 0.0
				if yr[j] > 0 {
					v = gr[j]
				}
				d[j], gb[j] = v, gb[j]+v
			}
		case Sigmoid:
			for j := range d {
				v := gr[j] * yr[j] * (1 - yr[j])
				d[j], gb[j] = v, gb[j]+v
			}
		default:
			for j, v := range gr {
				d[j], gb[j] = v, gb[j]+v
			}
		}
	}
}

// Layer is one differentiable stage of a network. Forward consumes a batch
// (rows = samples) and Backward consumes the gradient of the loss with
// respect to the layer output, returning the gradient with respect to the
// layer input and storing this batch's parameter gradients, which replace
// the previous step's: a step needs no zeroing sweep.
type Layer interface {
	Forward(x *tensor.Matrix, training bool, rng *xrand.Rand) *tensor.Matrix
	Backward(gradOut *tensor.Matrix) *tensor.Matrix
	// Params returns parameter/gradient matrix pairs (may be empty).
	Params() []ParamPair
}

// ParamPair couples a parameter matrix with its gradient.
type ParamPair struct {
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// Dense is a fully connected layer: out = act(x*W + b).
//
// forwardInto and backInto are the layer's arithmetic over buffers the
// caller names: Fit's arena, or for Forward(training) and Backward scratch
// the layer makes on first use and keeps (input copy, activations, delta,
// input gradient), so a warmed pair allocates nothing. The input batch is
// copied, so callers may overwrite their batch buffer between steps.
type Dense struct {
	In, Out int
	Act     Activation

	W, B   *tensor.Matrix // B is 1 x Out
	GW, GB *tensor.Matrix

	lastIn *tensor.Matrix // owned copy of the input batch
	z      *tensor.Matrix // owned post-activation output
	delta  *tensor.Matrix // owned gradOut ⊙ act' workspace
	gradIn *tensor.Matrix // owned input-gradient output
	cached bool           // true once Forward(training=true) has run
}

// reuse returns *m reshaped to rows x cols, allocating only on first use
// or growth. The returned matrix's contents are unspecified.
func reuse(m **tensor.Matrix, rows, cols int) *tensor.Matrix {
	return reserve(m, rows, cols, 0)
}

// reserve is reuse for scratch sized once to the largest shape its owner
// will ask for: an allocation (first use or growth) holds at least
// atLeast values, so later calls of any smaller shape never reallocate.
func reserve(m **tensor.Matrix, rows, cols, atLeast int) *tensor.Matrix {
	if *m == nil {
		*m = new(tensor.Matrix)
	}
	if n := rows * cols; cap((*m).Data) < n {
		(*m).Data = make([]float64, max(n, atLeast))
	}
	return (*m).Reshape(rows, cols)
}

// NewDense constructs a dense layer with Glorot-uniform initialized weights.
func NewDense(in, out int, act Activation, rng *xrand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out, Act: act,
		W:  tensor.NewMatrix(in, out),
		B:  tensor.NewMatrix(1, out),
		GW: tensor.NewMatrix(in, out),
		GB: tensor.NewMatrix(1, out),
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range d.W.Data {
		d.W.Data[i] = rng.Range(-limit, limit)
	}
	return d
}

// Forward implements Layer. In training mode the result matrix is owned
// by the layer and valid until its next training Forward; in eval mode a
// fresh matrix is returned.
func (d *Dense) Forward(x *tensor.Matrix, training bool, _ *xrand.Rand) *tensor.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: dense expects %d inputs, got %d", d.In, x.Cols))
	}
	if !training {
		return d.forwardInto(tensor.NewMatrix(x.Rows, d.Out), x)
	}
	in := reuse(&d.lastIn, x.Rows, d.In)
	copy(in.Data, x.Data)
	d.cached = true
	return d.forwardInto(reuse(&d.z, x.Rows, d.Out), in)
}

// forwardInto stores act(x*W + b) into dst, the bias seeded into the
// product and the activation selected once for the batch.
func (d *Dense) forwardInto(dst, x *tensor.Matrix) *tensor.Matrix {
	tensor.MatMulBiasInto(dst, x, d.W, d.B.Data)
	d.Act.applyAll(dst.Data)
	return dst
}

// Backward implements Layer. The returned input-gradient matrix is owned
// by the layer and valid until its next Backward.
func (d *Dense) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	return d.backward(gradOut, true)
}

// backward is Backward; with needInput false it stops after the parameter
// gradients and returns nil, which is what a network's first layer wants.
func (d *Dense) backward(gradOut *tensor.Matrix, needInput bool) *tensor.Matrix {
	if !d.cached {
		panic("nn: Backward before Forward(training=true)")
	}
	delta, dx := gradOut, (*tensor.Matrix)(nil)
	if d.Act != Identity {
		delta = reuse(&d.delta, gradOut.Rows, gradOut.Cols)
	}
	if needInput {
		dx = reuse(&d.gradIn, gradOut.Rows, d.In)
	}
	d.backInto(dx, delta, gradOut, nil, d.lastIn, d.z)
	return dx
}

// backInto leaves in GW and GB the gradients of the batch with input x and
// output z, from the loss gradient g with respect to z — or, with a mask, to
// what the Dropout behind the layer made of z — and stores the gradient with
// respect to x into dx unless that is nil. delta is g-shaped workspace.
func (d *Dense) backInto(dx, delta, g, mask, x, z *tensor.Matrix) {
	d.Act.backSweep(delta.Data, d.GB.Data, g.Data, z.Data, mask)
	tensor.MatMulATBInto(d.GW, x, delta) // GW = xᵀ·delta; the loss applies the batch mean
	if dx != nil {
		tensor.MatMulABTInto(dx, delta, d.W) // dX = delta·Wᵀ
	}
}

// Params implements Layer.
func (d *Dense) Params() []ParamPair {
	return []ParamPair{{d.W, d.GW}, {d.B, d.GB}}
}

// Dropout zeroes each input unit with probability P during training (and
// during MC-dropout inference), scaling survivors by 1/(1-P) (inverted
// dropout) so expected activations match eval mode.
type Dropout struct {
	P      float64
	mask   *tensor.Matrix // the multipliers of the last training Forward
	words  []uint64       // the random words that Forward drew them from
	active bool           // a mask is live from the last training Forward
	out    *tensor.Matrix // owned masked output
	gradIn *tensor.Matrix // owned backward output
}

// NewDropout returns a dropout layer with drop probability p in [0,1).
func NewDropout(p float64) *Dropout {
	if p < 0 || p >= 1 {
		panic("nn: dropout probability must be in [0,1)")
	}
	return &Dropout{P: p}
}

// Forward implements Layer. In training mode the result is an owned
// buffer reused across steps.
func (dr *Dropout) Forward(x *tensor.Matrix, training bool, rng *xrand.Rand) *tensor.Matrix {
	if !training || dr.P == 0 {
		dr.active = false
		return x
	}
	if rng == nil {
		panic("nn: dropout in training mode requires rng")
	}
	if n := (len(x.Data) + 1) / 2; cap(dr.words) < n {
		dr.words = make([]uint64, n)
	}
	dr.active = true
	return dr.maskInto(reuse(&dr.out, x.Rows, x.Cols), reuse(&dr.mask, x.Rows, x.Cols), dr.words, x, rng)
}

// maskInto stores a dropout sample of x into out and its multipliers into
// mask. One word of the stream, for which words has room, decides two units
// (tensor.DropoutMask), each kept when its 32-bit lane is below (1-p)·2³².
func (dr *Dropout) maskInto(out, mask *tensor.Matrix, words []uint64, x *tensor.Matrix, rng *xrand.Rand) *tensor.Matrix {
	words = words[:(len(x.Data)+1)/2]
	rng.Fill(words)
	tensor.DropoutMask(out.Data, x.Data, mask.Data, words, uint64((1-dr.P)*(1<<32)), 1/(1-dr.P))
	return out
}

// Backward implements Layer.
func (dr *Dropout) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if !dr.active {
		return gradOut
	}
	return tensor.Hadamard(reuse(&dr.gradIn, gradOut.Rows, gradOut.Cols), gradOut, dr.mask)
}

// Params implements Layer.
func (dr *Dropout) Params() []ParamPair { return nil }

// MSE is mean squared error, averaged over batch and outputs: the loss
// Fit trains on.
type MSE struct{}

// Value returns the mean loss over the batch.
func (MSE) Value(pred, target *tensor.Matrix) float64 {
	s := 0.0
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		s += d * d
	}
	return s / float64(len(pred.Data))
}

// Grad stores d(meanLoss)/d(pred) into dst and returns it. A nil dst
// allocates; hot loops pass a reused buffer of pred's shape. dst must not
// alias pred or target.
func (MSE) Grad(dst, pred, target *tensor.Matrix) *tensor.Matrix {
	if dst == nil {
		dst = tensor.NewMatrix(pred.Rows, pred.Cols)
	}
	scale := 2 / float64(len(pred.Data))
	for i := range pred.Data {
		dst.Data[i] = scale * (pred.Data[i] - target.Data[i])
	}
	return dst
}

// Network is an ordered stack of layers.
//
// The layer graph is the training side: Forward, Backward and Fit mutate
// shared layer state and must be single-threaded. Inference runs on the
// program Compile flattens the trained graph into, which is immutable and
// safe for concurrent use.
type Network struct {
	Layers []Layer
	rng    *xrand.Rand

	seedOnce sync.Once // seeds seedBase from rng on first use
	seedBase uint64    // base seed for compiled programs' rng streams
	seedCtr  atomic.Uint64
}

// NewNetwork builds a network around the given layers; rng drives dropout
// masks and any stochastic layer behaviour.
func NewNetwork(rng *xrand.Rand, layers ...Layer) *Network {
	return &Network{Layers: layers, rng: rng}
}

// NewMLP is a convenience constructor: a fully connected net with the given
// layer widths (e.g. 6,30,48,3), hidden activation act, Identity output,
// and optional dropout after each hidden layer (dropP == 0 disables).
func NewMLP(rng *xrand.Rand, act Activation, dropP float64, widths ...int) *Network {
	if len(widths) < 2 {
		panic("nn: MLP needs at least input and output widths")
	}
	var layers []Layer
	for i := 0; i < len(widths)-1; i++ {
		last := i == len(widths)-2
		a := act
		if last {
			a = Identity
		}
		layers = append(layers, NewDense(widths[i], widths[i+1], a, rng))
		if !last && dropP > 0 {
			layers = append(layers, NewDropout(dropP))
		}
	}
	return NewNetwork(rng, layers...)
}

// Forward runs a batch through the network. training toggles dropout and
// gradient caching.
func (n *Network) Forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	h := x
	for _, l := range n.Layers {
		h = l.Forward(h, training, n.rng)
	}
	return h
}

// Backward propagates the loss gradient through all layers, leaving this
// batch's parameter gradients in them. Nothing reads the gradient with
// respect to the network's input, so a first Dense layer skips it.
func (n *Network) Backward(gradOut *tensor.Matrix) {
	g := gradOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if d, ok := n.Layers[i].(*Dense); ok && i == 0 {
			d.backward(g, false)
			return
		}
		g = n.Layers[i].Backward(g)
	}
}

// Params returns every parameter pair in the network, in layer order.
func (n *Network) Params() []ParamPair {
	var out []ParamPair
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// NumParams returns the total scalar parameter count.
func (n *Network) NumParams() int {
	c := 0
	for _, p := range n.Params() {
		c += len(p.Value.Data)
	}
	return c
}

// Dims returns the network's input and output widths (the first dense
// layer's fan-in and the last dense layer's fan-out); ok is false when
// the network has no dense layer.
func (n *Network) Dims() (in, out int, ok bool) {
	for _, l := range n.Layers {
		if d, isDense := l.(*Dense); isDense {
			if !ok {
				in = d.In
				ok = true
			}
			out = d.Out
		}
	}
	return in, out, ok
}

// deriveSeed returns a distinct deterministic seed per call, split off the
// network's rng on first use: every compiled program of one network draws
// its dropout masks from its own stream.
func (n *Network) deriveSeed() uint64 {
	n.seedOnce.Do(func() { n.seedBase = n.rng.Uint64() })
	return n.seedBase + n.seedCtr.Add(1)*0x9e3779b97f4a7c15
}
