package nn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestTrainingStepGradient checks the tape's step — bias-seeded forward,
// per-call activation, gradients written straight into the gradient slab,
// the narrow-operand kernels, and the gradient with respect to the input
// that Backward stores into dx — against central finite differences of the
// loss, over the shapes the repo trains (serving 2-24-1, the paper's
// 6-30-48-3, the wide 8-128-128-4 which crosses the matmul fan-out
// threshold, and a bare 3-1 layer), at a full batch and then at shrinking
// tail batches on the same tape, with dropout off and on (on, it drops the
// input of every layer, the first's included). The mask is frozen by
// restarting the network's stream before every forward.
func TestTrainingStepGradient(t *testing.T) {
	shapes := [][]int{{2, 24, 1}, {6, 30, 48, 3}, {8, 128, 128, 4}, {3, 1}}
	for _, widths := range shapes {
		for _, dropP := range []float64{0, 0.2} {
			t.Run(fmt.Sprintf("%v/drop=%g", widths, dropP), func(t *testing.T) {
				rng := xrand.New(uint64(31 + len(widths)))
				net := NewMLP(rng, Tanh, dropP, widths...)
				net.layers[0].p = dropP
				tape := net.Tape(32)
				val, grad := tape.Params()
				for _, bs := range []int{32, 7, 1} { // 7 and 1 reuse the 32-row arena
					x := tensor.NewMatrix(bs, widths[0])
					y := tensor.NewMatrix(bs, widths[len(widths)-1])
					for i := range x.Data {
						x.Data[i] = rng.Range(-1, 1)
					}
					for i := range y.Data {
						y.Data[i] = rng.Range(-1, 1)
					}
					forward := func() *tensor.Matrix {
						net.rng = xrand.New(77) // same mask every time
						return tape.Forward(x)
					}
					dx := tensor.NewMatrix(bs, widths[0])
					pred := forward()
					tape.Backward(MSE{}.Grad(nil, pred, y), dx)
					lossAt := func() float64 { return MSE{}.Value(forward(), y) }
					checkGrads(t, fmt.Sprintf("batch %d param", bs), val, grad, lossAt)
					checkGrads(t, fmt.Sprintf("batch %d input", bs), x.Data, dx.Data, lossAt)
				}
			})
		}
	}
}

// checkGrads compares up to 24 evenly spaced entries of grad (first and
// last included) with a central difference of lossAt in the matching
// entry of val. lossAt runs forwards only, so grad stays this step's.
func checkGrads(t *testing.T, what string, val, grad []float64, lossAt func() float64) {
	t.Helper()
	const h = 1e-6
	n := len(val)
	stride := (n + 23) / 24
	for k := 0; k < n; k += stride {
		if k+stride >= n {
			k = n - 1
		}
		orig := val[k]
		val[k] = orig + h
		up := lossAt()
		val[k] = orig - h
		down := lossAt()
		val[k] = orig
		numeric := (up - down) / (2 * h)
		if analytic := grad[k]; math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("%s [%d]: analytic %g numeric %g", what, k, analytic, numeric)
		}
	}
}

// TestDenseBackwardReplacesGradients pins the step's contract that needs
// no zeroing sweep: a second Backward leaves exactly its own batch's
// gradients, whatever the first one left.
func TestDenseBackwardReplacesGradients(t *testing.T) {
	tape := NewNetwork(xrand.New(41), []Activation{Tanh}, 3, 2).Tape(2)
	_, grad := tape.Params()
	x := tensor.FromRows([][]float64{{0.5, -1, 2}, {1, 0.25, -0.5}})
	g := tensor.FromRows([][]float64{{1, -2}, {0.5, 3}})
	tape.Forward(x)
	tape.Backward(g, nil)
	want := slices.Clone(grad)
	for i := range grad {
		grad[i] = 1e9
	}
	tape.Forward(x)
	tape.Backward(g, nil)
	if !sameBits(grad, want) {
		t.Fatal("Backward accumulated into stale gradients instead of replacing them")
	}
}

// dropoutProbe is a network whose one layer drops its input with
// probability p, drawing the masks from rng, and sums the survivors: an
// Identity in→1 layer with unit weights and a zero bias. A tape over it
// shows the masked input as stages[0].x, and Backward's dx is g times the
// mask.
func dropoutProbe(p float64, in int, rng *xrand.Rand) *Network {
	n := NewNetwork(xrand.New(1), []Activation{Identity}, in, 1)
	n.layers[0].p, n.rng = p, rng
	for i := range n.layers[0].weights(n.slab) {
		n.slab[i] = 1
	}
	return n
}

// TestDropoutKeepFraction checks the lane-sampled mask: over 1e6 units the
// kept fraction is within 3σ of 1-P, and every survivor is scaled by
// exactly 1/(1-P) in the output and in the backward pass.
func TestDropoutKeepFraction(t *testing.T) {
	const n = 1_000_000
	x := tensor.NewMatrix(1000, n/1000+1) // odd width: the last lane of a row pair is unused
	x.Fill(2)
	g := tensor.NewMatrix(x.Rows, 1)
	g.Fill(2)
	back := tensor.NewMatrix(x.Rows, x.Cols)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		tape := dropoutProbe(p, x.Cols, xrand.New(uint64(1000*p))).Tape(x.Rows)
		tape.Forward(x)
		tape.Backward(g, back)
		out := tape.stages[0].x
		inv := 1 / (1 - p)
		kept := 0
		for i, v := range out.Data {
			switch {
			case v == 0 && back.Data[i] == 0:
			case v == 2*inv && back.Data[i] == 2*inv:
				kept++
			default:
				t.Fatalf("P=%g unit %d: forward %g backward %g, want 0 or %g", p, i, v, back.Data[i], 2*inv)
			}
		}
		units := float64(len(out.Data))
		frac := float64(kept) / units
		if sigma := math.Sqrt(p * (1 - p) / units); math.Abs(frac-(1-p)) > 3*sigma {
			t.Fatalf("P=%g: kept %g of %d units, want %g ± %g", p, frac, len(out.Data), 1-p, 3*sigma)
		}
	}
}

// TestDropoutMaskStream pins which units a seed drops: Forward draws one
// Uint64 for every two units, in order, and unit i survives when its 32-bit
// half of the word (low for even i) is below (1-P)·2³². The vector sweep
// kept this rule, so a seeded fit drops the units it always did.
func TestDropoutMaskStream(t *testing.T) {
	x := tensor.NewMatrix(3, 7) // 21 units: the last word's high half is unused
	x.Fill(1)
	p := 0.3
	tape := dropoutProbe(p, x.Cols, xrand.New(5)).Tape(x.Rows)
	tape.Forward(x)
	out := tape.stages[0].x
	rng, keep := xrand.New(5), uint64((1-p)*(1<<32))
	for i := 0; i < len(x.Data); i += 2 {
		w := rng.Uint64()
		for j, lane := range []uint64{w & (1<<32 - 1), w >> 32} {
			if i+j < len(x.Data) && (out.Data[i+j] != 0) != (lane < keep) {
				t.Fatalf("unit %d: output %g, lane %d, keep %d", i+j, out.Data[i+j], lane, keep)
			}
		}
	}
}
