// Package nn is a from-scratch feed-forward neural network library: the ML
// subsystem of the Learning Everywhere framework. The paper's exemplars use
// small dense networks (e.g. the 6→30→48→3 autotuning net of §III-D and the
// D=5 density surrogate of §II-C1) built with Keras/TensorFlow; this package
// reproduces that capability on the standard library alone, including the
// dropout machinery the paper's UQ discussion (§III-B) depends on:
// MC-dropout predictive distributions.
//
// A Network is a table of dense layers over one weight slab. It has one
// trainable form, the Tape (train.go): the step program Fit loops over,
// which the exemplars Fit does not fit drive themselves (DEFSI's two
// branches and head, the Behler–Parrinello atomic net whose energy pools
// its atoms). A tape trains the slab in place; inference runs on a
// Compiled copy of it (compile.go). The tests hold both to a
// layer-by-layer reference bit for bit.
package nn

import (
	"fmt"
	"math"
	"sync"

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

// layer is one row of a Network's table: out = act(drop(x)·W + b), where
// drop zeroes each input unit with probability p and scales the survivors
// by 1/(1-p) (inverted dropout) in training and MC-dropout inference, and
// is the identity otherwise. W (in x out, row-major) and b are the windows
// of the network's slab at off and off+in·out.
type layer struct {
	in, out int
	act     Activation
	p       float64
	off     int
}

// weights and bias are the layer's windows of a slab laid out like its
// network's: the weights themselves, or a tape's gradients of them.
func (l *layer) weights(slab []float64) []float64 {
	k := l.off + l.in*l.out
	return slab[l.off:k:k]
}

func (l *layer) bias(slab []float64) []float64 {
	k := l.off + l.in*l.out
	return slab[k : k+l.out : k+l.out]
}

// Network is a feed-forward net: a table of dense layers and one slab that
// holds every parameter, W₀|b₀|W₁|b₁|…, the order Compiled.slab and
// artifact v3 use.
//
// Fit and Tape train the slab in place and must be single-threaded.
// Inference runs on the program Compile copies the slab into, which is
// immutable and safe for concurrent use.
type Network struct {
	layers []layer
	slab   []float64
	rng    *xrand.Rand

	seedOnce sync.Once // seeds seedBase from rng on first use
	seedBase uint64    // keys the MC-dropout masks of every compiled program
}

// NewNetwork builds a fully connected net with the given layer widths (e.g.
// 6,30,48,3), acts[i] the activation of layer i, and no dropout. The
// weights are Glorot-uniform draws from rng, layer by layer, and the
// biases zero; rng then drives training's dropout masks and seeds the
// compiled programs' MC-dropout masks.
func NewNetwork(rng *xrand.Rand, acts []Activation, widths ...int) *Network {
	if len(acts) == 0 || len(acts) != len(widths)-1 {
		panic(fmt.Sprintf("nn: %d activations for %d widths", len(acts), len(widths)))
	}
	n := &Network{layers: make([]layer, len(acts)), rng: rng}
	off := 0
	for i, a := range acts {
		n.layers[i] = layer{in: widths[i], out: widths[i+1], act: a, off: off}
		off += (widths[i] + 1) * widths[i+1]
	}
	n.slab = make([]float64, off)
	for i := range n.layers {
		l := &n.layers[i]
		limit := math.Sqrt(6.0 / float64(l.in+l.out))
		for k := range l.weights(n.slab) {
			n.slab[l.off+k] = rng.Range(-limit, limit)
		}
	}
	return n
}

// NewMLP is NewNetwork with activation act on every hidden layer, an
// Identity output, and dropout with probability dropP (0 disables) on the
// input of every layer after the first.
func NewMLP(rng *xrand.Rand, act Activation, dropP float64, widths ...int) *Network {
	if len(widths) < 2 {
		panic("nn: MLP needs at least input and output widths")
	}
	if dropP < 0 || dropP >= 1 {
		panic("nn: dropout probability must be in [0,1)")
	}
	acts := make([]Activation, len(widths)-1)
	for i := range acts {
		acts[i] = act
	}
	acts[len(acts)-1] = Identity
	n := NewNetwork(rng, acts, widths...)
	for i := 1; i < len(n.layers); i++ {
		n.layers[i].p = dropP
	}
	return n
}

// deriveSeed returns the network's seed for compiled programs, split off
// its rng on first use: every program compiled from one network keys its
// MC-dropout masks by it, so they all thin the same units.
func (n *Network) deriveSeed() uint64 {
	n.seedOnce.Do(func() { n.seedBase = n.rng.Uint64() })
	return n.seedBase
}
