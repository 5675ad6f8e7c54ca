package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestTrainingStepGradient checks the fused minibatch step — bias-seeded
// forward, per-call activation, gradients written straight into GW/GB,
// the narrow-operand kernels, the skipped first-layer input gradient —
// against central finite differences of the loss, over the shapes the
// repo trains (serving 2-24-1, the paper's 6-30-48-3, the wide 8-128-128-4
// which crosses the matmul fan-out threshold, and a bare 3-1 layer), at a
// full batch and then at shrinking tail batches on the same network, with
// dropout off and on. With dropout on, the mask is frozen by restarting
// the network's stream before every forward.
func TestTrainingStepGradient(t *testing.T) {
	shapes := [][]int{{2, 24, 1}, {6, 30, 48, 3}, {8, 128, 128, 4}, {3, 1}}
	for _, widths := range shapes {
		for _, dropP := range []float64{0, 0.2} {
			t.Run(fmt.Sprintf("%v/drop=%g", widths, dropP), func(t *testing.T) {
				rng := xrand.New(uint64(31 + len(widths)))
				net := NewMLP(rng, Tanh, dropP, widths...)
				loss := MSE{}
				for _, bs := range []int{32, 7, 1} { // 7 and 1 reuse the 32-row workspaces
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
						return net.Forward(x, true)
					}
					pred := forward()
					net.Backward(loss.Grad(nil, pred, y))
					checkGrads(t, net, func() float64 { return loss.Value(forward(), y) }, bs)
				}
			})
		}
	}
}

// checkGrads compares up to 24 evenly spaced entries of every parameter
// gradient (first and last included) with a central difference of lossAt.
func checkGrads(t *testing.T, net *Network, lossAt func() float64, bs int) {
	t.Helper()
	const h = 1e-6
	for pi, p := range net.Params() {
		grad := p.Grad.Clone() // lossAt runs training forwards; keep this step's gradient
		n := len(p.Value.Data)
		stride := (n + 23) / 24
		for k := 0; k < n; k += stride {
			if k+stride >= n {
				k = n - 1
			}
			orig := p.Value.Data[k]
			p.Value.Data[k] = orig + h
			up := lossAt()
			p.Value.Data[k] = orig - h
			down := lossAt()
			p.Value.Data[k] = orig
			numeric := (up - down) / (2 * h)
			if analytic := grad.Data[k]; math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("batch %d param %d[%d]: analytic %g numeric %g", bs, pi, k, analytic, numeric)
			}
		}
	}
}

// TestDenseBackwardReplacesGradients pins the step's contract that needs
// no zeroing sweep: a second Backward leaves exactly its own batch's
// gradients, whatever the first one left.
func TestDenseBackwardReplacesGradients(t *testing.T) {
	rng := xrand.New(41)
	d := NewDense(3, 2, Tanh, rng)
	x := tensor.FromRows([][]float64{{0.5, -1, 2}, {1, 0.25, -0.5}})
	g := tensor.FromRows([][]float64{{1, -2}, {0.5, 3}})
	d.Forward(x, true, nil)
	d.Backward(g)
	wantW, wantB := d.GW.Clone(), d.GB.Clone()
	d.GW.Fill(1e9)
	d.GB.Fill(-1e9)
	d.Forward(x, true, nil)
	d.Backward(g)
	if !tensor.Equal(d.GW, wantW, 0) || !tensor.Equal(d.GB, wantB, 0) {
		t.Fatal("Backward accumulated into stale gradients instead of replacing them")
	}
}

// TestDropoutKeepFraction checks the lane-sampled mask: over 1e6 units the
// kept fraction is within 3σ of 1-P, and every survivor is scaled by
// exactly 1/(1-P) in the output and in the backward pass.
func TestDropoutKeepFraction(t *testing.T) {
	const n = 1_000_000
	x := tensor.NewMatrix(1000, n/1000+1) // odd width: the last lane of a row pair is unused
	x.Fill(2)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		dr := NewDropout(p)
		out := dr.Forward(x, true, xrand.New(uint64(1000*p)))
		back := dr.Backward(x)
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
	out := NewDropout(p).Forward(x, true, xrand.New(5))
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
