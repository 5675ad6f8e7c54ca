package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// trainQuantNet builds a lightly trained MLP plus a calibration slice
// drawn from the same input distribution.
func trainQuantNet(t *testing.T, seed uint64, act Activation, dropP float64, dims ...int) (*Network, *tensor.Matrix) {
	t.Helper()
	rng := xrand.New(seed)
	net := NewMLP(rng.Split(), act, dropP, dims...)
	x := tensor.NewMatrix(48, dims[0])
	y := tensor.NewMatrix(48, dims[len(dims)-1])
	r2 := rng.Split()
	for i := range x.Data {
		x.Data[i] = r2.Range(-1.5, 1.5)
	}
	for i := range y.Data {
		y.Data[i] = r2.Range(-1, 1)
	}
	if _, err := net.Fit(x, y, TrainConfig{Epochs: 15, BatchSize: 8, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	calib := tensor.NewMatrix(24, dims[0])
	for i := range calib.Data {
		calib.Data[i] = r2.Range(-1.5, 1.5)
	}
	return net, calib
}

// The headline property: for random trained nets and random in-envelope
// inputs, the quantized output stays within the compile-time-reported
// error bound of the float program. Inputs the program reports as
// clipped are exempt (that is exactly what the ok flag is for).
func TestQuantErrorBoundProperty(t *testing.T) {
	cases := []struct {
		seed  uint64
		act   Activation
		dropP float64
		dims  []int
	}{
		{101, Tanh, 0.1, []int{6, 30, 48, 3}},
		{102, Tanh, 0, []int{4, 16, 2}},
		{103, Sigmoid, 0.2, []int{5, 24, 16, 2}},
		{104, Tanh, 0.25, []int{2, 24, 1}},
		{105, Sigmoid, 0, []int{3, 8, 8, 8, 1}},
	}
	for _, tc := range cases {
		net, calib := trainQuantNet(t, tc.seed, tc.act, tc.dropP, tc.dims...)
		c := net.Compile()
		q := c.Quantize(calib)
		if q == nil {
			t.Fatalf("seed %d: Quantize returned nil for a bounded-activation net", tc.seed)
		}
		bound := q.ErrorBound()
		if bound <= 0 || math.IsInf(bound, 0) || math.IsNaN(bound) {
			t.Fatalf("seed %d: bad error bound %g", tc.seed, bound)
		}
		if q.CalibratedError() > bound {
			t.Fatalf("seed %d: calibrated error %g exceeds guaranteed bound %g",
				tc.seed, q.CalibratedError(), bound)
		}
		if q.GateBound() > bound {
			t.Fatalf("seed %d: gate band %g exceeds guaranteed bound %g", tc.seed, q.GateBound(), bound)
		}
		probe := xrand.New(tc.seed * 7)
		x := make([]float64, tc.dims[0])
		qout := make([]float64, q.out)
		fout := make([]float64, q.out)
		served := 0
		for trial := 0; trial < 200; trial++ {
			for i := range x {
				x[i] = probe.Range(-2, 2)
			}
			_, ok := q.Predict(x, qout)
			if !ok {
				continue // outside the calibrated envelope: bound not promised
			}
			served++
			c.predict(x, fout)
			for j := range qout {
				if d := math.Abs(qout[j] - fout[j]); d > bound {
					t.Fatalf("seed %d trial %d out %d: |quant-float| = %g exceeds bound %g",
						tc.seed, trial, j, d, bound)
				}
			}
		}
		if served == 0 {
			t.Fatalf("seed %d: every probe clipped; envelope is broken", tc.seed)
		}
	}
}

// Batch serving must agree exactly — bitwise — with N separate single
// Predict calls: the quantized batch path serves rows through the
// identical scalar program.
func TestQuantPredictBatchExact(t *testing.T) {
	net, calib := trainQuantNet(t, 110, Tanh, 0.1, 6, 30, 48, 3)
	q := net.Compile().Quantize(calib)
	if q == nil {
		t.Fatal("Quantize returned nil")
	}
	rng := xrand.New(111)
	xs := tensor.NewMatrix(17, 6)
	for i := range xs.Data {
		xs.Data[i] = rng.Range(-3, 3) // some rows clip on purpose
	}
	ok := make([]bool, xs.Rows)
	batch := q.PredictBatch(xs, nil, ok)
	single := make([]float64, q.out)
	for r := 0; r < xs.Rows; r++ {
		_, sok := q.Predict(xs.Row(r), single)
		if sok != ok[r] {
			t.Fatalf("row %d: batch ok=%v, single ok=%v", r, ok[r], sok)
		}
		for j := range single {
			if batch.At(r, j) != single[j] {
				t.Fatalf("row %d out %d: batch %v != single %v", r, j, batch.At(r, j), single[j])
			}
		}
	}
}

// The MC batch path is the same per-row program, and its masks are keyed
// by (row, step, pass, unit), never by the row's place in the batch, so it
// reproduces N single-row PredictMC calls on the same program exactly.
func TestQuantPredictMCBatchExact(t *testing.T) {
	net, calib := trainQuantNet(t, 115, Tanh, 0.15, 5, 20, 12, 2)
	q := net.Compile().Quantize(calib)
	if q == nil {
		t.Fatal("Quantize returned nil")
	}
	rng := xrand.New(116)
	xs := tensor.NewMatrix(9, 5)
	for i := range xs.Data {
		xs.Data[i] = rng.Range(-1.5, 1.5)
	}
	const passes = 7
	ok := make([]bool, xs.Rows)
	mean, std := q.PredictMCBatch(xs, passes, nil, nil, ok)
	smean := make([]float64, 2)
	sstd := make([]float64, 2)
	for r := 0; r < xs.Rows; r++ {
		_, _, sok := q.PredictMC(xs.Row(r), passes, smean, sstd)
		if sok != ok[r] {
			t.Fatalf("row %d: ok mismatch", r)
		}
		for j := 0; j < 2; j++ {
			if mean.At(r, j) != smean[j] || std.At(r, j) != sstd[j] {
				t.Fatalf("row %d out %d: batch (%v,%v) != single (%v,%v)",
					r, j, mean.At(r, j), std.At(r, j), smean[j], sstd[j])
			}
		}
	}
}

// A dropout-free program must collapse MC to the deterministic pass
// with exactly zero std; a dropout program's MC mean stays near the
// float program's MC mean (quantization bound + Monte Carlo noise).
func TestQuantPredictMC(t *testing.T) {
	net, calib := trainQuantNet(t, 120, Tanh, 0, 4, 16, 2)
	q := net.Compile().Quantize(calib)
	x := []float64{0.3, -0.2, 0.8, -0.5}
	mean, std, ok := q.PredictMC(x, 5, nil, nil)
	if !ok {
		t.Fatal("in-envelope input reported clipped")
	}
	det, _ := q.Predict(x, nil)
	for j := range mean {
		if mean[j] != det[j] || std[j] != 0 {
			t.Fatalf("no-dropout MC: out %d mean %v det %v std %v", j, mean[j], det[j], std[j])
		}
	}

	netD, calibD := trainQuantNet(t, 121, Tanh, 0.2, 6, 30, 48, 3)
	cD := netD.Compile()
	qD := cD.Quantize(calibD)
	const passes = 400
	qm, qs, ok := qD.PredictMC([]float64{0.2, -0.4, 0.6, -0.1, 0.9, -0.7}, passes, nil, nil)
	if !ok {
		t.Fatal("in-envelope input reported clipped")
	}
	fm, fs := cD.PredictMC([]float64{0.2, -0.4, 0.6, -0.1, 0.9, -0.7}, passes, nil, nil)
	for j := range qm {
		tol := qD.ErrorBound() + 6*(fs[j]+qs[j])/math.Sqrt(passes) + 1e-3
		if d := math.Abs(qm[j] - fm[j]); d > tol {
			t.Fatalf("out %d: quant MC mean %g vs float %g (|d|=%g > tol %g)", j, qm[j], fm[j], d, tol)
		}
		if qs[j] < 0 || math.IsNaN(qs[j]) {
			t.Fatalf("out %d: bad quant MC std %g", j, qs[j])
		}
	}
}

// Inputs outside the calibrated envelope must be flagged on every entry
// point — that flag is what routes the query back to the float program.
func TestQuantClipFlag(t *testing.T) {
	net, calib := trainQuantNet(t, 130, Tanh, 0.1, 4, 12, 2)
	q := net.Compile().Quantize(calib)
	far := []float64{50, 0, 0, 0}
	if _, ok := q.Predict(far, nil); ok {
		t.Fatal("Predict: far-out input not flagged")
	}
	if _, _, ok := q.PredictMC(far, 4, nil, nil); ok {
		t.Fatal("PredictMC: far-out input not flagged")
	}
	xs := tensor.FromRows([][]float64{{0.1, 0.2, 0.1, 0}, {50, 0, 0, 0}})
	oks := make([]bool, 2)
	q.PredictBatch(xs, nil, oks)
	if !oks[0] || oks[1] {
		t.Fatalf("PredictBatch ok = %v, want [true false]", oks)
	}
}

// Unsupported shapes degrade to nil (caller keeps the float program):
// ReLU hidden layers have no bounded requant grid.
func TestQuantizeUnsupported(t *testing.T) {
	rng := xrand.New(140)
	relu := NewMLP(rng.Split(), ReLU, 0.1, 4, 12, 2)
	if q := relu.Compile().Quantize(nil); q != nil {
		t.Fatal("ReLU hidden net should not quantize")
	}
}

// Serialize round-trip: a float program restored from an artifact that
// carried no int8 program must Quantize to bit-identical int8 panels and
// scales — what lets a registry artifact drop its quant section and have
// the reader re-derive it.
func TestQuantSerializeRoundTrip(t *testing.T) {
	net, calib := trainQuantNet(t, 150, Tanh, 0.1, 6, 30, 48, 3)
	q1 := net.Compile().Quantize(calib)
	q2 := artifactRoundTrip(t, net.Compile()).Quantize(calib)
	if q2 == nil {
		t.Fatal("restored net did not quantize")
	}
	if q1.inScale != q2.inScale || q1.invIn != q2.invIn {
		t.Fatalf("input scale drifted: %g vs %g", q1.inScale, q2.inScale)
	}
	if q1.boundMax != q2.boundMax || q1.calErr != q2.calErr || q1.gate != q2.gate {
		t.Fatalf("error figures drifted: (%g,%g,%g) vs (%g,%g,%g)",
			q1.boundMax, q1.calErr, q1.gate, q2.boundMax, q2.calErr, q2.gate)
	}
	if len(q1.steps) != len(q2.steps) {
		t.Fatalf("step count %d vs %d", len(q1.steps), len(q2.steps))
	}
	for si := range q1.steps {
		a, b := &q1.steps[si], &q2.steps[si]
		if a.kind != b.kind {
			t.Fatalf("step %d kind mismatch", si)
		}
		if a.kind != stepDense {
			continue
		}
		if len(a.panel.Words) != len(b.panel.Words) {
			t.Fatalf("step %d: packed panel size %d vs %d", si, len(a.panel.Words), len(b.panel.Words))
		}
		for i := range a.panel.Words {
			if a.panel.Words[i] != b.panel.Words[i] {
				t.Fatalf("step %d word %d: packed panels differ", si, i)
			}
		}
		for j := range a.panel.ColCorr {
			if a.panel.ColCorr[j] != b.panel.ColCorr[j] {
				t.Fatalf("step %d col %d: corrections differ", si, j)
			}
		}
		for j := range a.wscale {
			if a.wscale[j] != b.wscale[j] {
				t.Fatalf("step %d col %d: scale %g vs %g", si, j, a.wscale[j], b.wscale[j])
			}
		}
	}
	// And the restored program serves identical outputs.
	x := []float64{0.3, -0.2, 0.8, -0.5, 0.1, 0.6}
	o1, _ := q1.Predict(x, nil)
	o2, _ := q2.Predict(x, nil)
	for j := range o1 {
		if o1[j] != o2[j] {
			t.Fatalf("out %d: %v vs %v after round-trip", j, o1[j], o2[j])
		}
	}
}

// Warmed quantized entry points must allocate nothing — the same
// contract as the float compiled program.
func TestQuantZeroAlloc(t *testing.T) {
	skipAllocCheckUnderRace(t)
	net, calib := trainQuantNet(t, 160, Tanh, 0.1, 6, 30, 48, 3)
	q := net.Compile().Quantize(calib)
	x := []float64{0.3, -0.2, 0.8, -0.5, 0.1, 0.6}
	dst := make([]float64, 3)
	mean := make([]float64, 3)
	std := make([]float64, 3)
	q.Predict(x, dst) // warm the pool
	if n := testing.AllocsPerRun(200, func() { q.Predict(x, dst) }); n != 0 {
		t.Fatalf("Predict allocates %v/op", n)
	}
	q.PredictMC(x, 8, mean, std)
	if n := testing.AllocsPerRun(100, func() { q.PredictMC(x, 8, mean, std) }); n != 0 {
		t.Fatalf("PredictMC allocates %v/op", n)
	}
	xs := tensor.NewMatrix(16, 6)
	for i := range xs.Data {
		xs.Data[i] = 0.1
	}
	bdst := tensor.NewMatrix(16, 3)
	oks := make([]bool, 16)
	q.PredictBatch(xs, bdst, oks)
	if n := testing.AllocsPerRun(100, func() { q.PredictBatch(xs, bdst, oks) }); n != 0 {
		t.Fatalf("PredictBatch allocates %v/op", n)
	}
	bm := tensor.NewMatrix(16, 3)
	bs := tensor.NewMatrix(16, 3)
	q.PredictMCBatch(xs, 8, bm, bs, oks)
	if n := testing.AllocsPerRun(50, func() { q.PredictMCBatch(xs, 8, bm, bs, oks) }); n != 0 {
		t.Fatalf("PredictMCBatch allocates %v/op", n)
	}
}
