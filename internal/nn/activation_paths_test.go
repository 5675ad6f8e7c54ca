package nn

import (
	"math"
	"slices"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestActivationPathsAgree proves there is one activation implementation:
// for the same pre-activations, the reference graph's eval, the tape, the
// compiled row program, the compiled batch program (its eval prefix and
// its pass-stacked MC suffix) and the float stage of the int8 program give
// bit-identical activations.
//
// The layer under test has a diagonal weight matrix, so unit j's
// pre-activation is x[j]·diag[j] + b[j] whatever order a matmul kernel sums
// in (every other term is an exact zero), and the paths differ only in
// how they reach applyAll: on slices of 1, width, rows·width and
// passes·rows·width elements, at different offsets from a vector boundary.
func TestActivationPathsAgree(t *testing.T) {
	const width, rows = 27, 9 // neither a multiple of the vector length
	for _, act := range []Activation{Tanh, Sigmoid} {
		rng := xrand.New(0xac7 + uint64(act))
		net := NewNetwork(rng, []Activation{act}, width, width)
		clear(net.slab)
		diag, bias := make([]float64, width), net.layers[0].bias(net.slab)
		for j := 0; j < width; j++ {
			diag[j] = rng.Range(-3, 3)
			bias[j] = rng.Range(-1, 1)
			net.slab[j*width+j] = diag[j]
		}
		x := tensor.NewMatrix(rows, width)
		for i := range x.Data {
			x.Data[i] = rng.Range(-4, 4) * math.Ldexp(1, -rng.Intn(12)) // both tanh branches
		}
		// want[r][j] is the activation of one value alone (the scalar
		// tail); pre is how every float path forms the pre-activation.
		pre := func(xv float64, j int) float64 { return xv*diag[j] + bias[j] }
		want := tensor.NewMatrix(rows, width)
		for r := 0; r < rows; r++ {
			for j := 0; j < width; j++ {
				want.Set(r, j, apply1(act, pre(x.At(r, j), j)))
			}
		}
		same := func(path string, got []float64, r int) {
			t.Helper()
			for j, v := range got {
				if math.Float64bits(v) != math.Float64bits(want.At(r, j)) {
					t.Fatalf("%v, %s: row %d unit %d = %x, alone it is %x", act, path, r, j,
						math.Float64bits(v), math.Float64bits(want.At(r, j)))
				}
			}
		}

		for r, out := 0, newRefGraph(net).forward(x, false); r < rows; r++ {
			same("reference graph (eval)", out.Row(r), r)
		}
		for r, out := 0, net.Tape(rows).Forward(x); r < rows; r++ {
			same("Tape.Forward", out.Row(r), r)
		}
		c := net.Compile()
		for r := 0; r < rows; r++ {
			same("Compiled row", c.predict(x.Row(r), nil), r)
		}
		for r, out := 0, c.PredictBatch(x, nil); r < rows; r++ {
			same("Compiled batch", out.Row(r), r)
		}

		// MC paths. Dropout at p = 1/2 multiplies by exactly 0 or 2, and an
		// identity read-out layer copies what it is given, so one pass of
		// [hidden, Dropout, read-out] returns 0 or exactly twice the hidden
		// activation: the compiled batch program takes its eval prefix and
		// a one-dense-step pass-stacked suffix.
		tail := NewNetwork(rng, []Activation{act, Identity}, width, width, width)
		clear(tail.slab)
		copy(tail.slab, net.slab)
		for j := 0; j < width; j++ {
			tail.layers[1].weights(tail.slab)[j*width+j] = 1
		}
		tail.layers[1].p = 0.5
		// oneOf checks every element of a one-pass MC mean against the values
		// the masks allow for it, and that the masks did vary.
		oneOf := func(path string, mean *tensor.Matrix, allowed func(r, j int) []float64) {
			t.Helper()
			seen := map[int]bool{}
			for r := 0; r < rows; r++ {
			unit:
				for j, v := range mean.Row(r) {
					for k, w := range allowed(r, j) {
						if math.Float64bits(v) == math.Float64bits(w) {
							seen[k] = true
							continue unit
						}
					}
					t.Fatalf("%v, %s: row %d unit %d = %x, the masks allow %x", act, path, r, j,
						math.Float64bits(v), allowed(r, j))
				}
			}
			if len(seen) < 2 {
				t.Fatalf("%v, %s: the mask never varied", act, path)
			}
		}
		afterHidden := func(r, j int) []float64 { return []float64{0, 2 * want.At(r, j)} }
		mean, _ := tail.Compile().PredictMCBatch(x, 1, nil, nil)
		oneOf("Compiled batch, MC one-step suffix", mean, afterHidden)

		// A dropout before the hidden layer as well makes the stochastic
		// suffix two dense steps deep, which is the pass-stacked path: the
		// hidden layer then sees 2x or 0, and its activation is applied to
		// the tall pass-stacked panel.
		deep := &Network{layers: slices.Clone(tail.layers), slab: tail.slab, rng: rng}
		deep.layers[0].p = 0.5
		mean, _ = deep.Compile().PredictMCBatch(x, 1, nil, nil)
		oneOf("Compiled batch, pass-stacked MC", mean, func(r, j int) []float64 {
			return []float64{0, 2 * apply1(act, pre(2*x.At(r, j), j)), 2 * apply1(act, pre(0, j))}
		})

		// The int8 program's last dense step dequantises its accumulators
		// and applies the activation in float. Recompute that step's
		// pre-activations from the program's own panel and scales.
		q := c.Quantize(x)
		if q == nil {
			t.Fatalf("%v: Quantize refused a single bounded layer", act)
		}
		st := &q.steps[len(q.steps)-1]
		qx, ux, acc := make([]int8, width), make([]uint64, width), make([]int32, width)
		for r := 0; r < rows; r++ {
			got, _ := q.Predict(x.Row(r), nil)
			tensor.QuantizeVec(qx, x.Row(r), q.invIn)
			st.panel.Sweep(acc, qx, ux)
			for j, a := range acc {
				if w := apply1(act, float64(a)*st.sEff[j]+st.b[j]); math.Float64bits(got[j]) != math.Float64bits(w) {
					t.Fatalf("%v, int8 float stage: row %d unit %d = %x, alone it is %x", act, r, j,
						math.Float64bits(got[j]), math.Float64bits(w))
				}
			}
		}
	}
}
