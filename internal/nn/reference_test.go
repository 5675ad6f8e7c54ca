package nn

import (
	"math"

	"repro/internal/tensor"
)

// The tape and the compiled program are held to the reference below: the
// layer graph written out one layer at a time over views of the network's
// slab, with fresh matrices for every result, a copied input and the
// dropout's backward as a separate Hadamard product. It shares no code with train.go
// or compile.go above the tensor kernels and the activations' sweeps.

// refGraph drives a Network layer by layer. grad holds the last backward's
// parameter gradients, laid out like the slab; xs, masks and zs keep, per
// layer, the input the product read, the dropout multipliers behind it
// (nil when none were drawn) and the output.
type refGraph struct {
	n             *Network
	grad          []float64
	xs, masks, zs []*tensor.Matrix
}

func newRefGraph(n *Network) *refGraph {
	return &refGraph{n: n, grad: make([]float64, len(n.slab))}
}

// w is a matrix view of layer i's weights in slab (the network's or grad).
func (r *refGraph) w(i int, slab []float64) *tensor.Matrix {
	l := &r.n.layers[i]
	return &tensor.Matrix{Rows: l.in, Cols: l.out, Data: l.weights(slab)}
}

// forward runs x through every layer. In training mode each input dropout
// draws one word of the network's stream for two units, in order, and a
// unit survives when its 32-bit lane is below (1-p)·2³²; eval mode skips
// dropout.
func (r *refGraph) forward(x *tensor.Matrix, training bool) *tensor.Matrix {
	r.xs, r.masks, r.zs = nil, nil, nil
	h := x.Clone()
	for i := range r.n.layers {
		l := &r.n.layers[i]
		var mask *tensor.Matrix
		if training && l.p > 0 {
			mask = tensor.NewMatrix(h.Rows, h.Cols)
			out := tensor.NewMatrix(h.Rows, h.Cols)
			words := make([]uint64, (len(h.Data)+1)/2)
			r.n.rng.Fill(words)
			tensor.DropoutMask(out.Data, h.Data, mask.Data, words, uint64((1-l.p)*(1<<32)), 1/(1-l.p))
			h = out
		}
		z := tensor.MatMulBiasInto(nil, h, r.w(i, r.n.slab), l.bias(r.n.slab))
		l.act.applyAll(z.Data)
		r.xs, r.masks, r.zs = append(r.xs, h), append(r.masks, mask), append(r.zs, z)
		h = z
	}
	return h
}

// backward propagates g, the loss gradient with respect to the last
// training forward's output, into grad and returns the gradient with
// respect to that forward's input.
func (r *refGraph) backward(g *tensor.Matrix) *tensor.Matrix {
	for i := len(r.n.layers) - 1; i >= 0; i-- {
		l := &r.n.layers[i]
		delta := tensor.NewMatrix(g.Rows, g.Cols)
		l.act.backSweep(delta.Data, l.bias(r.grad), g.Data, r.zs[i].Data, nil)
		tensor.MatMulATBInto(r.w(i, r.grad), r.xs[i], delta)
		g = tensor.MatMulABTInto(nil, delta, r.w(i, r.n.slab))
		if r.masks[i] != nil {
			g = tensor.Hadamard(nil, g, r.masks[i])
		}
	}
	return g
}

// evalRow is the deterministic reference for one input vector: the layer
// graph's eval-mode forward on a one-row batch.
func evalRow(net *Network, x []float64) []float64 {
	out := newRefGraph(net).forward(tensor.FromRows([][]float64{x}), false)
	return append([]float64(nil), out.Row(0)...)
}

// mcReference is the statistical MC-dropout reference: passes
// training-mode forwards of the layer graph (per-element masks, whose
// per-row marginals are those of the compiled programs' column-shared
// masks), reduced to per-element mean and std.
func mcReference(net *Network, x *tensor.Matrix, passes int) (mean, std *tensor.Matrix) {
	var sum, ssq *tensor.Matrix
	ref := newRefGraph(net)
	for t := 0; t < passes; t++ {
		out := ref.forward(x, true)
		if sum == nil {
			sum = tensor.NewMatrix(out.Rows, out.Cols)
			ssq = tensor.NewMatrix(out.Rows, out.Cols)
		}
		for k, v := range out.Data {
			sum.Data[k] += v
			ssq.Data[k] += v * v
		}
	}
	inv := 1 / float64(passes)
	for k := range sum.Data {
		m := sum.Data[k] * inv
		sum.Data[k] = m
		ssq.Data[k] = math.Sqrt(math.Max(ssq.Data[k]*inv-m*m, 0))
	}
	return sum, ssq
}
