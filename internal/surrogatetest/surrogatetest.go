// Package surrogatetest is test support for the surrogate contract
// (core.Surrogate): Rows builds a surrogate from per-row functions, so a
// test stub is a closure instead of a hand-rolled batch loop, and
// Conformance holds any implementation to what the wrapper relies on. It
// imports nothing above tensor, so core's own tests can use it.
package surrogatetest

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/raceflag"
	"repro/internal/tensor"
)

// Surrogate restates core.Surrogate (interfaces are structural, so the two
// are interchangeable) to keep this package importable from core.
type Surrogate interface {
	Train(x, y *tensor.Matrix) error
	Trained() bool
	PredictInto(x, mean, std *tensor.Matrix)
}

// Rows is a Surrogate answering every row through Row.
type Rows struct {
	// Fit is Train's body (nil: nothing to learn); the surrogate is
	// trained once it has returned nil.
	Fit func(x, y *tensor.Matrix) error
	// Row answers one input. A nil std claims zero uncertainty.
	Row func(x []float64) (mean, std []float64)

	trained bool
}

// Train implements Surrogate.
func (r *Rows) Train(x, y *tensor.Matrix) (err error) {
	if r.Fit != nil {
		err = r.Fit(x, y)
	}
	r.trained = r.trained || err == nil
	return err
}

// Trained implements Surrogate.
func (r *Rows) Trained() bool { return r.trained }

// PredictInto implements Surrogate, one Row call per row of x.
func (r *Rows) PredictInto(x, mean, std *tensor.Matrix) {
	if !r.trained {
		panic("surrogatetest: surrogate used before training")
	}
	for i := 0; i < x.Rows; i++ {
		m, s := r.Row(x.Row(i))
		if i == 0 {
			mean.Reshape(x.Rows, len(m))
			if std != nil {
				std.Reshape(x.Rows, len(m)).Zero()
			}
		}
		copy(mean.Row(i), m)
		if std != nil {
			copy(std.Row(i), s)
		}
	}
}

// Mean returns a surrogate that learns the column means of its training
// targets and predicts them everywhere with a claimed std of sigma per
// output: a fixed model whose residual against shifted data is exactly
// the shift.
func Mean(sigma float64) *Rows {
	var mean, std []float64
	return &Rows{
		Fit: func(x, y *tensor.Matrix) error {
			mean, std = make([]float64, y.Cols), make([]float64, y.Cols)
			for i := 0; i < y.Rows; i++ {
				for j, v := range y.Row(i) {
					mean[j] += v
				}
			}
			for j := range std {
				mean[j] /= float64(y.Rows)
				std[j] = sigma
			}
			return nil
		},
		Row: func([]float64) ([]float64, []float64) { return mean, std },
	}
}

// Conformance holds a surrogate from factory to the batch contract,
// training it on (x, y; more than maxBatch rows). maxBatch is the
// implementation's internal chunk width (1 when it has none): the
// deterministic pass is compared across batches of 1, maxBatch and
// maxBatch+1 rows. zeroAlloc additionally requires a warmed PredictInto
// to allocate nothing.
func Conformance(t *testing.T, factory func() Surrogate, x, y *tensor.Matrix, maxBatch int, zeroAlloc bool) {
	t.Helper()
	sur := factory()
	probe := x.SliceRows(0, maxBatch+1)
	mean, std := tensor.NewMatrix(3, 7), tensor.NewMatrix(2, 5) // wrongly shaped on purpose
	mustPanic := func(when string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("PredictInto %s did not panic", when)
			}
		}()
		sur.PredictInto(probe, mean, std)
	}
	if sur.Trained() {
		t.Fatal("fresh surrogate claims to be trained")
	}
	mustPanic("before Train")
	// A panic in Train is an error, as on the wrapper's refit goroutine.
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("Train panicked: %v", r)
			}
		}()
		return sur.Train(x, y)
	}()
	if sur.Trained() != (err == nil) {
		t.Fatalf("Train returned %v yet Trained() is %v", err, sur.Trained())
	}
	if err != nil {
		mustPanic("after a failed Train")
		return
	}
	shaped := func(pass string, m *tensor.Matrix, rows int) {
		t.Helper()
		if m.Rows != rows || m.Cols != y.Cols {
			t.Fatalf("%s pass shaped %dx%d, want %dx%d", pass, m.Rows, m.Cols, rows, y.Cols)
		}
	}

	// The deterministic pass: the same bits at every batch width.
	ref := tensor.NewMatrix(0, 0)
	sur.PredictInto(probe, ref, nil)
	shaped("deterministic", ref, probe.Rows)
	for _, width := range []int{1, maxBatch, maxBatch + 1} {
		for lo := 0; lo+width <= probe.Rows; lo += width {
			sur.PredictInto(probe.SliceRows(lo, lo+width), mean, nil)
			shaped("deterministic", mean, width)
			if !tensor.Equal(mean, ref.SliceRows(lo, lo+width), 0) {
				t.Fatalf("width %d from row %d: deterministic mean differs from the %d-row batch's", width, lo, probe.Rows)
			}
		}
	}

	// The UQ pass: finite, std >= 0, and where it claims certainty (std
	// exactly zero, as every row of a zero-dropout model does) its mean is
	// the deterministic mean.
	sur.PredictInto(probe, mean, std)
	shaped("UQ mean", mean, probe.Rows)
	shaped("UQ std", std, probe.Rows)
	for k, sd := range std.Data {
		if m := mean.Data[k] + ref.Data[k]; math.IsNaN(m) || math.IsInf(m, 0) || !(sd >= 0) || math.IsInf(sd, 0) {
			t.Fatalf("element %d: mean %g (deterministic %g), std %g", k, mean.Data[k], ref.Data[k], sd)
		}
		if sd == 0 && mean.Data[k] != ref.Data[k] {
			t.Fatalf("element %d: zero std, yet mean %g is not the deterministic %g", k, mean.Data[k], ref.Data[k])
		}
	}

	if zeroAlloc && !raceflag.Enabled {
		for _, sd := range []*tensor.Matrix{nil, std} {
			if n := testing.AllocsPerRun(50, func() { sur.PredictInto(probe, mean, sd) }); n != 0 {
				t.Fatalf("warmed PredictInto (std %v) allocates %g times per call, want 0", sd != nil, n)
			}
		}
	}

	// Concurrent callers with their own result matrices do not interfere.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var m, s tensor.Matrix
			for i := 0; i < 20; i++ {
				sur.PredictInto(probe, &m, &s)
				sur.PredictInto(probe, &m, nil)
				if !tensor.Equal(&m, ref, 0) {
					t.Error("concurrent deterministic pass returned different bits")
					return
				}
			}
		}()
	}
	wg.Wait()
}
