package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestDenseForwardBackwardZeroAlloc pins the hot-path contract: a tape
// of one dense layer allocates nothing in Forward+Backward. Shapes are kept
// below the matmul parallel-fanout threshold so goroutine spawning doesn't
// count.
func TestDenseForwardBackwardZeroAlloc(t *testing.T) {
	rng := xrand.New(5)
	tape := NewNetwork(rng, []Activation{Tanh}, 16, 16).Tape(8)
	x := tensor.NewMatrix(8, 16)
	g := tensor.NewMatrix(8, 16)
	for i := range x.Data {
		x.Data[i] = rng.Range(-1, 1)
		g.Data[i] = rng.Range(-1, 1)
	}
	step := func() {
		tape.Forward(x)
		tape.Backward(g, nil)
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("tape Forward+Backward allocates %g times per step, want 0", allocs)
	}
}

// TestDropoutForwardBackwardZeroAlloc pins the same contract for a tape
// whose layer drops its input, with the input gradient asked for.
func TestDropoutForwardBackwardZeroAlloc(t *testing.T) {
	tape := dropoutProbe(0.3, 16, xrand.New(6)).Tape(8)
	x := tensor.NewMatrix(8, 16)
	g := tensor.NewMatrix(8, 1)
	dx := tensor.NewMatrix(8, 16)
	x.Fill(1)
	g.Fill(1)
	step := func() {
		tape.Forward(x)
		tape.Backward(g, dx)
	}
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("dropout tape Forward+Backward allocates %g times per step, want 0", allocs)
	}
}

// TestPredictorForwardZeroAlloc pins the serving-side contract: a warmed
// batch pass of the compiled program (the predictor there is) into a
// caller-owned result allocates nothing.
func TestPredictorForwardZeroAlloc(t *testing.T) {
	skipAllocCheckUnderRace(t) // the program's scratch is pooled
	rng := xrand.New(7)
	net := NewMLP(rng, Tanh, 0.1, 8, 16, 16, 2)
	c := net.Compile()
	x := tensor.NewMatrix(4, 8)
	for i := range x.Data {
		x.Data[i] = rng.Range(-1, 1)
	}
	dst := c.PredictBatch(x, nil)
	if allocs := testing.AllocsPerRun(50, func() { c.PredictBatch(x, dst) }); allocs != 0 {
		t.Fatalf("steady-state Compiled.PredictBatch allocates %g times per pass, want 0", allocs)
	}
}

// TestAdamStepZeroAlloc pins the optimizer hot-path contract: after the
// first Step initializes the moment buffers, the fused update allocates
// nothing.
func TestAdamStepZeroAlloc(t *testing.T) {
	rng := xrand.New(12)
	val, grad := NewMLP(rng, Tanh, 0, 8, 16, 4).Tape(1).Params()
	for i := range grad {
		grad[i] = rng.Range(-1, 1)
	}
	opt := NewAdam(1e-3)
	opt.Step(val, grad) // warm up m/v buffers
	if allocs := testing.AllocsPerRun(50, func() { opt.Step(val, grad) }); allocs != 0 {
		t.Fatalf("steady-state Adam.Step allocates %g times per step, want 0", allocs)
	}
}

// TestAdamFusedMatchesReference checks the fused one-pass update against a
// direct transcription of the Adam formulas.
func TestAdamFusedMatchesReference(t *testing.T) {
	rng := xrand.New(13)
	val := tensor.NewMatrix(3, 4)
	grad := tensor.NewMatrix(3, 4)
	for i := range val.Data {
		val.Data[i] = rng.Range(-1, 1)
	}
	ref := val.Clone()
	refM := tensor.NewMatrix(3, 4)
	refV := tensor.NewMatrix(3, 4)
	opt := NewAdam(1e-2)
	for step := 1; step <= 5; step++ {
		for i := range grad.Data {
			grad.Data[i] = rng.Range(-1, 1)
		}
		opt.Step(val.Data, grad.Data)
		c1 := 1 - math.Pow(adamBeta1, float64(step))
		c2 := 1 - math.Pow(adamBeta2, float64(step))
		for k := range ref.Data {
			g := grad.Data[k]
			refM.Data[k] = adamBeta1*refM.Data[k] + (1-adamBeta1)*g
			refV.Data[k] = adamBeta2*refV.Data[k] + (1-adamBeta2)*g*g
			ref.Data[k] -= opt.LR * (refM.Data[k] / c1) / (math.Sqrt(refV.Data[k]/c2) + adamEps)
		}
	}
	if !tensor.Equal(val, ref, 1e-12) {
		t.Fatal("fused Adam diverged from reference formulas")
	}
}

// TestPredictorMatchesNetworkPredict checks that the workspace-reusing
// inference path — the compiled batch program — computes exactly what
// the layer graph's allocating eval path does.
func TestPredictorMatchesNetworkPredict(t *testing.T) {
	rng := xrand.New(9)
	net := NewMLP(rng, Tanh, 0, 3, 12, 12, 2)
	c := net.Compile()
	x := tensor.NewMatrix(5, 3)
	for i := range x.Data {
		x.Data[i] = rng.Range(-1, 1)
	}
	ref := newRefGraph(net)
	want := ref.forward(x, false)
	got := c.PredictBatch(x, nil)
	if !tensor.Equal(got, want, 0) {
		t.Fatal("Compiled.PredictBatch differs from eval Forward")
	}
	// Repeated passes over different batch sizes, into the same result
	// matrix, stay correct.
	x2 := x.SliceRows(0, 2)
	want2 := ref.forward(x2, false)
	if !tensor.Equal(c.PredictBatch(x2, got), want2, 0) {
		t.Fatal("Compiled.PredictBatch wrong after batch-size change")
	}
}

// TestPredictMCBatchMatchesSingle sanity-checks the batched MC path
// against per-row statistics: for a deterministic net both must collapse
// to the eval prediction with zero std.
func TestPredictMCBatchMatchesSingle(t *testing.T) {
	rng := xrand.New(10)
	net := NewMLP(rng, Tanh, 0, 4, 10, 2)
	x := tensor.NewMatrix(3, 4)
	for i := range x.Data {
		x.Data[i] = rng.Range(-1, 1)
	}
	mean, std := net.Compile().PredictMCBatch(x, 20, nil, nil)
	want := newRefGraph(net).forward(x, false)
	if !tensor.Equal(mean, want, 1e-12) {
		t.Fatal("deterministic MC batch mean differs from eval forward")
	}
	for _, v := range std.Data {
		if v != 0 {
			t.Fatalf("deterministic MC batch std %g want exactly 0", v)
		}
	}
}

// TestPredictMCBatchUncertaintyPositive checks dropout spread survives
// the batched path.
func TestPredictMCBatchUncertaintyPositive(t *testing.T) {
	rng := xrand.New(11)
	net := NewMLP(rng, Tanh, 0.2, 4, 32, 2)
	x := tensor.NewMatrix(3, 4)
	for i := range x.Data {
		x.Data[i] = rng.Range(-1, 1)
	}
	_, std := net.Compile().PredictMCBatch(x, 40, nil, nil)
	for i, v := range std.Data {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("MC batch std[%d] = %g want > 0", i, v)
		}
	}
}
