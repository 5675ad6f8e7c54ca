package core

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestServingTenantFitQuality pins the fitted quality of the surrogate the
// serving tenants run — 2→24→1, dropout 0.1, 200 epochs of Adam on
// sin(x₀)+x₁/2 — pooled over four fixed initialisation seeds, on inputs
// the fit never saw. The training step may change a model's bits (its
// dropout stream did in PR 14) but not what a fit achieves: the pin is
// the pooled held-out RMSE measured at the commit before that change,
// plus 5 %.
func TestServingTenantFitQuality(t *testing.T) {
	const pinned = 0.06035
	truth := func(x []float64) float64 { return math.Sin(x[0]) + 0.5*x[1] }
	draw := func(rng *xrand.Rand, rows int) (*tensor.Matrix, *tensor.Matrix) {
		x, y := tensor.NewMatrix(rows, 2), tensor.NewMatrix(rows, 1)
		for i := 0; i < rows; i++ {
			x.Row(i)[0], x.Row(i)[1] = rng.Range(-2, 2), rng.Range(-1, 1)
			y.Row(i)[0] = truth(x.Row(i))
		}
		return x, y
	}
	trainX, trainY := draw(xrand.New(0x5e4e), 1024)
	testX, testY := draw(xrand.New(0x7e57), 2000)
	sse := 0.0
	for seed := uint64(1); seed <= 4; seed++ {
		s := NewNNSurrogate(2, 1, []int{24}, 0.1, xrand.New(seed))
		if err := s.Train(trainX, trainY); err != nil {
			t.Fatal(err)
		}
		var pred tensor.Matrix
		s.PredictInto(testX, &pred, nil)
		for i, p := range pred.Data {
			d := p - testY.Data[i]
			sse += d * d
		}
	}
	rmse := math.Sqrt(sse / float64(4*testX.Rows))
	t.Logf("pooled held-out RMSE %.5f (pin %.5f + 5 %%)", rmse, pinned)
	if rmse > pinned*1.05 {
		t.Fatalf("held-out RMSE %.5f exceeds the pinned %.5f by more than 5 %%", rmse, pinned)
	}
}
