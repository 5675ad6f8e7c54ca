package nn

import (
	"math"
	"sync"
	"testing"

	"repro/internal/raceflag"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// skipAllocCheckUnderRace documents why pooled-path alloc tests cannot
// run under -race: sync.Pool drops a fraction of Put items there.
func skipAllocCheckUnderRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items under -race; alloc counts through pooled paths are meaningless")
	}
}

// predict is one deterministic row, a batch of one through PredictBatch,
// written into dst (len == out; nil allocates).
func (c *Compiled) predict(x, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, c.out)
	}
	xs, ys := oneRow(x), oneRow(dst)
	c.PredictBatch(&xs, &ys)
	return dst
}

// TestCompiledMatchesPredict checks the fused program against the layer
// graph: same inputs, same outputs (up to summation-order rounding).
func TestCompiledMatchesPredict(t *testing.T) {
	rng := xrand.New(21)
	net := NewMLP(rng, Tanh, 0.1, 6, 30, 48, 3)
	c := net.Compile()
	if c == nil {
		t.Fatal("Compile returned nil for a Dense/Dropout network")
	}
	if in, out := c.Dims(); in != 6 || out != 3 {
		t.Fatalf("compiled dims %d→%d, want 6→3", in, out)
	}
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, 6)
		for i := range x {
			x[i] = rng.Range(-2, 2)
		}
		want := evalRow(net, x)
		got := c.predict(x, nil)
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-12 {
				t.Fatalf("trial %d output %d: compiled %g vs layer-graph %g", trial, j, got[j], want[j])
			}
		}
	}
}

// TestCompiledSnapshotSemantics checks that a compiled program is a true
// weight snapshot: training the source network does not change it.
func TestCompiledSnapshotSemantics(t *testing.T) {
	rng := xrand.New(22)
	net := NewMLP(rng, Tanh, 0, 3, 12, 2)
	x := tensor.NewMatrix(8, 3)
	y := tensor.NewMatrix(8, 2)
	for i := range x.Data {
		x.Data[i] = rng.Range(-1, 1)
	}
	for i := range y.Data {
		y.Data[i] = rng.Range(-1, 1)
	}
	c := net.Compile()
	probe := []float64{0.4, -0.1, 0.7}
	before := c.predict(probe, nil)
	if _, err := net.Fit(x, y, TrainConfig{Epochs: 20, BatchSize: 4, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	after := c.predict(probe, nil)
	for j := range before {
		if after[j] != before[j] {
			t.Fatal("training the source network mutated the compiled program")
		}
	}
	moved := evalRow(net, probe)
	same := true
	for j := range before {
		if moved[j] != before[j] {
			same = false
		}
	}
	if same {
		t.Fatal("source did not move after training; snapshot test vacuous")
	}
}

// TestCompiledPredictZeroAlloc pins the tentpole contract: a warmed
// compiled single-query forward with a caller-provided dst allocates
// nothing.
func TestCompiledPredictZeroAlloc(t *testing.T) {
	skipAllocCheckUnderRace(t)
	rng := xrand.New(23)
	net := NewMLP(rng, Tanh, 0.1, 6, 30, 48, 3)
	c := net.Compile()
	x := []float64{0.1, -0.3, 0.8, 0.2, -0.5, 0.9}
	dst := make([]float64, 3)
	c.predict(x, dst) // warm the ctx pool
	if allocs := testing.AllocsPerRun(100, func() { c.predict(x, dst) }); allocs != 0 {
		t.Fatalf("compiled Predict allocates %g times per query, want 0", allocs)
	}
}

// TestCompiledPredictMCZeroAlloc pins the same contract for the MC-dropout
// UQ path with caller-provided accumulators.
func TestCompiledPredictMCZeroAlloc(t *testing.T) {
	skipAllocCheckUnderRace(t)
	rng := xrand.New(24)
	net := NewMLP(rng, Tanh, 0.2, 6, 30, 3)
	c := net.Compile()
	x := []float64{0.1, -0.3, 0.8, 0.2, -0.5, 0.9}
	mean := make([]float64, 3)
	std := make([]float64, 3)
	c.PredictMC(x, 10, mean, std)
	if allocs := testing.AllocsPerRun(100, func() { c.PredictMC(x, 10, mean, std) }); allocs != 0 {
		t.Fatalf("compiled PredictMC allocates %g times per query, want 0", allocs)
	}
}

// TestCompiledPredictMCStats checks the MC statistics: deterministic
// programs collapse to the eval output with exactly zero std, dropout
// programs report positive spread.
func TestCompiledPredictMCStats(t *testing.T) {
	rng := xrand.New(25)
	det := NewMLP(rng, Tanh, 0, 4, 16, 2).Compile()
	x := []float64{0.3, -0.2, 0.5, 0.1}
	mean, std := det.PredictMC(x, 20, nil, nil)
	want := det.predict(x, nil)
	for j := range want {
		if mean[j] != want[j] {
			t.Fatalf("deterministic MC mean %g differs from eval %g", mean[j], want[j])
		}
		if std[j] != 0 {
			t.Fatalf("deterministic MC std %g, want exactly 0", std[j])
		}
	}
	drop := NewMLP(rng, Tanh, 0.2, 4, 32, 2).Compile()
	_, std = drop.PredictMC(x, 40, nil, nil)
	for j, v := range std {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("dropout MC std[%d] = %g, want > 0", j, v)
		}
	}
}

// TestCompiledConcurrent hammers one compiled program from many
// goroutines (run under -race): contexts are pooled per call, so
// concurrent queries must not interfere.
func TestCompiledConcurrent(t *testing.T) {
	rng := xrand.New(26)
	net := NewMLP(rng, Tanh, 0.1, 4, 24, 2)
	c := net.Compile()
	x := []float64{0.2, -0.4, 0.6, 0.1}
	want := c.predict(x, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, 2)
			mean := make([]float64, 2)
			std := make([]float64, 2)
			for i := 0; i < 200; i++ {
				c.predict(x, dst)
				for j := range want {
					if dst[j] != want[j] {
						panic("concurrent compiled Predict returned wrong value")
					}
				}
				c.PredictMC(x, 5, mean, std)
			}
		}()
	}
	wg.Wait()
}
