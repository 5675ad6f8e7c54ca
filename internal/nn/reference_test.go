package nn

import (
	"math"

	"repro/internal/tensor"
)

// The compiled program is the only inference path; these helpers are the
// independent reference the tests hold it to — the training graph itself,
// which shares no code with compile.go above the tensor kernels.

// evalRow is the deterministic reference for one input vector: the layer
// graph's eval-mode forward on a one-row batch.
func evalRow(net *Network, x []float64) []float64 {
	out := net.Forward(tensor.FromRows([][]float64{x}), false)
	return append([]float64(nil), out.Row(0)...)
}

// mcReference is the statistical MC-dropout reference: passes
// training-mode forwards of the layer graph (per-element masks, whose
// per-row marginals are those of the compiled programs' column-shared
// masks), reduced to per-element mean and std.
func mcReference(net *Network, x *tensor.Matrix, passes int) (mean, std *tensor.Matrix) {
	var sum, ssq *tensor.Matrix
	for t := 0; t < passes; t++ {
		out := net.Forward(x, true)
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
