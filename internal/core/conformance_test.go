package core

import (
	"errors"
	"testing"

	"repro/internal/surrogatetest"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// quantView serves a Degradable's UQ pass from its quantized program, so
// the conformance suite reaches the int8 path through the extension.
type quantView struct{ Degradable }

func (q quantView) Train(x, y *tensor.Matrix) error {
	q.SetQuantize(true)
	return q.Degradable.Train(x, y)
}

func (q quantView) PredictInto(x, mean, std *tensor.Matrix) {
	if std == nil || !q.Trained() {
		q.Degradable.PredictInto(x, mean, std) // untrained: panics, as it must
		return
	}
	q.PredictQuantInto(x, mean, std, make([]bool, x.Rows)) // panics without an int8 program
}

// TestSurrogateConformance runs the one contract suite over every
// implementation of Surrogate in this package: NNSurrogate (with dropout,
// without, and quantized through Degradable) and the row-function stubs
// the wrapper tests publish.
func TestSurrogateConformance(t *testing.T) {
	rng := xrand.New(0xc0f)
	x, y := tensor.NewMatrix(40, 2), tensor.NewMatrix(40, 1)
	for i := 0; i < x.Rows; i++ {
		a, b := rng.Range(-1, 1), rng.Range(-1, 1)
		copy(x.Row(i), []float64{a, b})
		y.Row(i)[0] = a*b + 0.5*a
	}
	y2 := tensor.NewMatrix(y.Rows, 2)
	for i := 0; i < y.Rows; i++ {
		y2.Row(i)[0], y2.Row(i)[1] = y.Row(i)[0], y.Row(i)[0]
	}
	const maxBatch = 4
	nnSur := func(dropout float64) *NNSurrogate {
		s := NewNNSurrogate(2, 1, []int{12}, dropout, xrand.New(7))
		s.Epochs, s.MCPasses, s.MaxBatch = 20, 6, maxBatch
		return s
	}
	for _, tc := range []struct {
		name      string
		factory   func() surrogatetest.Surrogate
		y         *tensor.Matrix
		maxBatch  int
		zeroAlloc bool
	}{
		{"NNSurrogate", func() surrogatetest.Surrogate { return nnSur(0.1) }, y, maxBatch, true},
		{"NNSurrogate/dropout=0", func() surrogatetest.Surrogate { return nnSur(0) }, y, maxBatch, true},
		{"NNSurrogate/quantized", func() surrogatetest.Surrogate { return quantView{nnSur(0.1)} }, y, maxBatch, false},
		{"gateStub", func() surrogatetest.Surrogate { return gateStub() }, y, 1, false},
		{"genSur", func() surrogatetest.Surrogate { return genSur(3) }, y2, 1, false},
		{"gateGenSur", func() surrogatetest.Surrogate { return gateGenSur(3) }, y2, 1, false},
		{"meanSur", func() surrogatetest.Surrogate { return meanSur() }, y, 1, false},
		{"uqSur", func() surrogatetest.Surrogate { return uqSur(1) }, y, 1, false},
		{"constSur", func() surrogatetest.Surrogate { return constSur() }, y, 1, false},
		{"failSur", func() surrogatetest.Surrogate { return failSur(errors.New("no")) }, y, 1, false},
		{"panicSur", func() surrogatetest.Surrogate { return panicSur() }, y, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			surrogatetest.Conformance(t, tc.factory, x, tc.y, tc.maxBatch, tc.zeroAlloc)
		})
	}
}
