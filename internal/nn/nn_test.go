package nn

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// apply1 is applyAll on one value: a slice too short for a vector kernel,
// so it also checks the kernels against their scalar tails.
func apply1(a Activation, x float64) float64 {
	z := []float64{x}
	a.applyAll(z)
	return z[0]
}

func TestActivationValues(t *testing.T) {
	cases := []struct {
		act  Activation
		x    float64
		want float64
	}{
		{Identity, 3, 3},
		{ReLU, -2, 0},
		{ReLU, 2, 2},
		{Tanh, 0, 0},
		{Sigmoid, 0, 0.5},
	}
	for _, c := range cases {
		if got := apply1(c.act, c.x); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("%v(%g) = %g want %g", c.act, c.x, got, c.want)
		}
	}
}

func TestActivationDerivativeConsistency(t *testing.T) {
	// backSweep over y = applyAll(x), here two rows of two, must give g
	// times the numerical derivative of the activation at x and the column
	// sums of that, and a slice long enough for a vector kernel must agree
	// with one value at a time.
	xs := []float64{-2, -0.5, 0.3, 1.7}
	g := []float64{1, -2, 0.5, 3}
	for _, act := range []Activation{Identity, ReLU, Tanh, Sigmoid} {
		y := append([]float64(nil), xs...)
		act.applyAll(y)
		got, gb := make([]float64, len(xs)), []float64{7, 7}
		act.backSweep(got, gb, g, y, nil)
		if gb[0] != got[0]+got[2] || gb[1] != got[1]+got[3] {
			t.Fatalf("%v: column sums %v of %v", act, gb, got)
		}
		for i, x := range xs {
			if y[i] != apply1(act, x) {
				t.Fatalf("%v: applyAll(%g) = %g, alone it gives %g", act, x, y[i], apply1(act, x))
			}
			h := 1e-6
			num := g[i] * (apply1(act, x+h) - apply1(act, x-h)) / (2 * h)
			if math.Abs(num-got[i]) > 1e-5 {
				t.Fatalf("%v'(%g): analytic %g numeric %g", act, x, got[i], num)
			}
		}
	}
}

func TestDenseForwardShape(t *testing.T) {
	tape := NewNetwork(xrand.New(1), []Activation{ReLU}, 3, 5).Tape(7)
	out := tape.Forward(tensor.NewMatrix(7, 3))
	if out.Rows != 7 || out.Cols != 5 {
		t.Fatalf("dense output %dx%d", out.Rows, out.Cols)
	}
}

func TestDenseForwardKnown(t *testing.T) {
	net := NewNetwork(xrand.New(1), []Activation{Identity}, 2, 1)
	copy(net.slab, []float64{2, 3, 1}) // W₀ | b₀
	out := net.Tape(1).Forward(tensor.FromRows([][]float64{{1, 1}}))
	if out.At(0, 0) != 6 {
		t.Fatalf("dense forward = %g want 6", out.At(0, 0))
	}
}

// gradCheck compares the tape's parameter gradients with central finite
// differences of the loss, evaluated by the reference graph in eval mode,
// for a small network.
func gradCheck(t *testing.T, act Activation, seed uint64) {
	t.Helper()
	rng := xrand.New(seed)
	net := NewMLP(rng, act, 0, 3, 4, 2)
	x := tensor.FromRows([][]float64{{0.5, -0.2, 0.8}, {-1, 0.3, 0.1}, {0.2, 0.9, -0.4}})
	y := tensor.FromRows([][]float64{{1, 0}, {0, 1}, {0.5, 0.5}})
	loss := MSE{}
	ref := newRefGraph(net)

	lossAt := func() float64 {
		return loss.Value(ref.forward(x, false), y)
	}

	tape := net.Tape(x.Rows)
	pred := tape.Forward(x)
	tape.Backward(loss.Grad(nil, pred, y), nil)

	const h = 1e-6
	val, grad := tape.Params()
	for k := range val {
		orig := val[k]
		val[k] = orig + h
		up := lossAt()
		val[k] = orig - h
		down := lossAt()
		val[k] = orig
		numeric := (up - down) / (2 * h)
		if analytic := grad[k]; math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("%v param [%d]: analytic %g numeric %g", act, k, analytic, numeric)
		}
	}
}

func TestGradientCheckTanh(t *testing.T)     { gradCheck(t, Tanh, 11) }
func TestGradientCheckSigmoid(t *testing.T)  { gradCheck(t, Sigmoid, 12) }
func TestGradientCheckIdentity(t *testing.T) { gradCheck(t, Identity, 13) }

func TestFitLearnsLinearFunction(t *testing.T) {
	rng := xrand.New(31)
	const n = 400
	x := tensor.NewMatrix(n, 2)
	y := tensor.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		a, b := rng.Range(-1, 1), rng.Range(-1, 1)
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y.Set(i, 0, 2*a-3*b+0.5)
	}
	net := NewMLP(rng, Tanh, 0, 2, 16, 1)
	hist, err := net.Fit(x, y, TrainConfig{Epochs: 300, BatchSize: 32, Optimizer: NewAdam(0.01), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	final := hist.TrainLoss[len(hist.TrainLoss)-1]
	if final > 1e-3 {
		t.Fatalf("final loss %g, network failed to learn linear map", final)
	}
	pred := evalRow(net, []float64{0.3, -0.2})
	want := 2*0.3 - 3*(-0.2) + 0.5
	if math.Abs(pred[0]-want) > 0.05 {
		t.Fatalf("prediction %g want %g", pred[0], want)
	}
}

func TestFitLearnsNonlinearFunction(t *testing.T) {
	rng := xrand.New(37)
	const n = 600
	x := tensor.NewMatrix(n, 1)
	y := tensor.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		v := rng.Range(-2, 2)
		x.Set(i, 0, v)
		y.Set(i, 0, math.Sin(v))
	}
	net := NewMLP(rng, Tanh, 0, 1, 24, 24, 1)
	if _, err := net.Fit(x, y, TrainConfig{Epochs: 400, BatchSize: 64, Optimizer: NewAdam(0.01), Seed: 2}); err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, v := range []float64{-1.5, -0.7, 0, 0.9, 1.8} {
		p := evalRow(net, []float64{v})[0]
		if e := math.Abs(p - math.Sin(v)); e > worst {
			worst = e
		}
	}
	if worst > 0.1 {
		t.Fatalf("worst sin() error %g", worst)
	}
}

func TestFitErrorsOnMismatchedRows(t *testing.T) {
	rng := xrand.New(43)
	net := NewMLP(rng, Tanh, 0, 1, 4, 1)
	_, err := net.Fit(tensor.NewMatrix(3, 1), tensor.NewMatrix(4, 1), TrainConfig{Epochs: 1})
	if err == nil {
		t.Fatal("mismatched rows should error")
	}
}

func TestFitErrorsOnEmpty(t *testing.T) {
	rng := xrand.New(43)
	net := NewMLP(rng, Tanh, 0, 1, 4, 1)
	if _, err := net.Fit(tensor.NewMatrix(0, 1), tensor.NewMatrix(0, 1), TrainConfig{Epochs: 1}); err == nil {
		t.Fatal("empty training set should error")
	}
}

// TestFitDivergenceDetected: Adam moves every weight by about its learning
// rate a step, so at 1e200 the second minibatch's forward overflows and the
// loss is non-finite.
func TestFitDivergenceDetected(t *testing.T) {
	rng := xrand.New(47)
	const n = 64
	x := tensor.NewMatrix(n, 1)
	y := tensor.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.Range(-100, 100))
		y.Set(i, 0, rng.Range(-100, 100))
	}
	net := NewMLP(rng, ReLU, 0, 1, 16, 1)
	_, err := net.Fit(x, y, TrainConfig{Epochs: 200, BatchSize: 8, Optimizer: NewAdam(1e200), Seed: 4})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("Fit with lr=1e200 returned %v, want ErrDiverged", err)
	}
}

func TestDropoutEvalIsIdentity(t *testing.T) {
	net := NewNetwork(xrand.New(1), []Activation{Identity}, 3, 3)
	net.layers[0].p = 0.5
	clear(net.slab)
	for j := 0; j < 3; j++ {
		net.slab[j*3+j] = 1
	}
	x := []float64{1, 2, 3}
	if out := net.Compile().predict(x, nil); !sameBits(out, x) {
		t.Fatal("dropout in eval mode should be identity")
	}
}

func TestDropoutTrainingMaskStatistics(t *testing.T) {
	tape := dropoutProbe(0.3, 10000, xrand.New(53)).Tape(1)
	x := tensor.NewMatrix(1, 10000)
	x.Fill(1)
	tape.Forward(x)
	out := tape.stages[0].x
	zeros := 0
	sum := 0.0
	for _, v := range out.Data {
		if v == 0 {
			zeros++
		}
		sum += v
	}
	frac := float64(zeros) / float64(len(out.Data))
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("dropped fraction %g want ~0.3", frac)
	}
	// Inverted dropout keeps the expectation.
	if mean := sum / float64(len(out.Data)); math.Abs(mean-1) > 0.05 {
		t.Fatalf("post-dropout mean %g want ~1", mean)
	}
}

func TestDropoutBackwardUsesMask(t *testing.T) {
	tape := dropoutProbe(0.5, 100, xrand.New(59)).Tape(1)
	x := tensor.NewMatrix(1, 100)
	x.Fill(1)
	tape.Forward(x)
	out := tape.stages[0].x
	g := tensor.NewMatrix(1, 1)
	g.Fill(1)
	back := tensor.NewMatrix(1, 100)
	tape.Backward(g, back)
	for i := range out.Data {
		if (out.Data[i] == 0) != (back.Data[i] == 0) {
			t.Fatal("backward mask inconsistent with forward mask")
		}
	}
}

func TestDropoutInvalidP(t *testing.T) {
	for _, p := range []float64{-0.1, 1.0, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewMLP with dropout %g did not panic", p)
				}
			}()
			NewMLP(xrand.New(1), Tanh, p, 2, 3, 1)
		}()
	}
}

func TestPredictMCUncertainty(t *testing.T) {
	rng := xrand.New(61)
	net := NewMLP(rng, Tanh, 0.2, 2, 32, 1)
	mean, std := net.Compile().PredictMC([]float64{0.5, 0.5}, 50, nil, nil)
	if len(mean) != 1 || len(std) != 1 {
		t.Fatalf("bad MC output lengths %d %d", len(mean), len(std))
	}
	if std[0] <= 0 {
		t.Fatal("MC dropout should produce nonzero predictive std")
	}
	// Without dropout the std must be exactly zero.
	det := NewMLP(rng, Tanh, 0, 2, 32, 1)
	_, std0 := det.Compile().PredictMC([]float64{0.5, 0.5}, 10, nil, nil)
	if std0[0] != 0 {
		t.Fatalf("deterministic net MC std = %g want 0", std0[0])
	}
}

func TestScalerRoundTrip(t *testing.T) {
	rng := xrand.New(73)
	x := tensor.NewMatrix(200, 3)
	for i := range x.Data {
		x.Data[i] = rng.Normal(5, 7)
	}
	s := FitScaler(x)
	z := s.Transform(x)
	for j := 0; j < 3; j++ {
		col := make([]float64, z.Rows)
		for i := 0; i < z.Rows; i++ {
			col[i] = z.At(i, j)
		}
		if m := stats.Mean(col); math.Abs(m) > 1e-9 {
			t.Fatalf("standardized column %d mean %g", j, m)
		}
	}
	v := []float64{1.5, -2, 0.25}
	back := s.Inverse(s.TransformVec(v))
	for j := range v {
		if math.Abs(back[j]-v[j]) > 1e-9 {
			t.Fatalf("scaler round trip failed at %d: %g vs %g", j, back[j], v[j])
		}
	}
}

func TestScalerConstantColumn(t *testing.T) {
	x := tensor.FromRows([][]float64{{1, 5}, {2, 5}, {3, 5}})
	s := FitScaler(x)
	z := s.Transform(x)
	for i := 0; i < 3; i++ {
		if math.IsNaN(z.At(i, 1)) || math.IsInf(z.At(i, 1), 0) {
			t.Fatal("constant column produced non-finite standardization")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := xrand.New(79)
	net := NewMLP(rng, Tanh, 0.1, 4, 10, 3)
	restored := artifactRoundTrip(t, net.Compile())
	in := []float64{0.1, -0.5, 0.3, 0.9}
	a := evalRow(net, in)
	b := restored.predict(in, nil)
	for j := range a {
		if math.Abs(a[j]-b[j]) > 1e-12 {
			t.Fatalf("restored prediction differs: %g vs %g", a[j], b[j])
		}
	}
	if len(restored.slab) != len(net.slab) {
		t.Fatal("parameter count changed across save/load")
	}
}

func TestLoadGarbageFails(t *testing.T) {
	for _, garbage := range [][]byte{nil, []byte("not an artifact"), make([]byte, 4096)} {
		if VerifyArtifact(garbage) == nil {
			t.Fatalf("%d bytes of garbage passed verification", len(garbage))
		}
		if _, err := DecodeArtifact(garbage); err == nil {
			t.Fatalf("%d bytes of garbage decoded", len(garbage))
		}
	}
}

func TestNumParamsMatchesArchitecture(t *testing.T) {
	rng := xrand.New(97)
	// The paper's autotuning net: 6 -> 30 -> 48 -> 3 (§III-D).
	net := NewMLP(rng, Tanh, 0, 6, 30, 48, 3)
	want := 6*30 + 30 + 30*48 + 48 + 48*3 + 3
	if got := len(net.slab); got != want {
		t.Fatalf("%d parameters, want %d", got, want)
	}
}

// Property: MC-dropout mean with many passes approaches deterministic
// prediction scaled expectation (inverted dropout preserves expectation).
func TestMCDropoutMeanNearDeterministicQuick(t *testing.T) {
	rng := xrand.New(101)
	net := NewMLP(rng, Identity, 0.1, 2, 8, 1)
	c := net.Compile()
	if err := quick.Check(func(aRaw, bRaw uint8) bool {
		a := float64(aRaw)/255 - 0.5
		b := float64(bRaw)/255 - 0.5
		det := evalRow(net, []float64{a, b})[0]
		mean, _ := c.PredictMC([]float64{a, b}, 800, nil, nil)
		// Linear net: expectation of dropout forward equals deterministic.
		return math.Abs(mean[0]-det) < 0.15*(1+math.Abs(det))
	}, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2 by hand-feeding gradients.
	w, g := []float64{0}, []float64{0}
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		g[0] = 2 * (w[0] - 3)
		opt.Step(w, g)
	}
	if math.Abs(w[0]-3) > 0.01 {
		t.Fatalf("Adam converged to %g want 3", w[0])
	}
}

func BenchmarkForward32x32(b *testing.B) {
	rng := xrand.New(1)
	net := NewMLP(rng, Tanh, 0, 5, 32, 32, 3)
	c := net.Compile()
	x := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.predict(x, nil)
	}
}

func BenchmarkTrainEpoch(b *testing.B) {
	rng := xrand.New(2)
	const n = 256
	x := tensor.NewMatrix(n, 5)
	y := tensor.NewMatrix(n, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	net := NewMLP(rng, Tanh, 0, 5, 30, 48, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = net.Fit(x, y, TrainConfig{Epochs: 1, BatchSize: 32, Optimizer: NewAdam(1e-3)})
	}
}
