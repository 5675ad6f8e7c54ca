package core

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// brownoutWrapper builds a pretrained stochastic wrapper (dropout > 0 so
// UQ gating is live) over a call-counting oracle, with Quantized off so
// the ladder's prefer-quant rung is observable as a behavior change.
func brownoutWrapper(t testing.TB, uqThreshold float64) (*Wrapper, *NNSurrogate, *atomic.Int64) {
	t.Helper()
	rng := xrand.New(0xB0B0)
	var oracleCalls atomic.Int64
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		oracleCalls.Add(1)
		return []float64{math.Sin(x[0]) + 0.5*x[1]}, nil
	}}
	sur := NewNNSurrogate(2, 1, []int{16}, 0.3, rng)
	sur.Epochs = 50
	sur.MCPasses = 8
	w := NewWrapper(oracle, sur, WrapperConfig{
		MinTrainSamples: 10, UQThreshold: uqThreshold,
	})
	design := tensor.NewMatrix(40, 2)
	for i := 0; i < design.Rows; i++ {
		design.Set(i, 0, rng.Range(-1, 1))
		design.Set(i, 1, rng.Range(-1, 1))
	}
	if err := w.Pretrain(design); err != nil {
		t.Fatal(err)
	}
	oracleCalls.Store(0) // pretraining's oracle sweeps don't count
	return w, sur, &oracleCalls
}

func TestBrownoutLadderMCPassCap(t *testing.T) {
	_, sur, _ := brownoutWrapper(t, 100)
	if got := sur.passes(); got != 8 {
		t.Fatalf("uncapped passes = %d, want MCPasses 8", got)
	}
	sur.SetMCPassCap(brownoutMCPasses)
	if got := sur.passes(); got != brownoutMCPasses {
		t.Fatalf("capped passes = %d, want %d", got, brownoutMCPasses)
	}
	sur.SetMCPassCap(1)
	if got := sur.passes(); got != 1 {
		t.Fatalf("NoUQ passes = %d, want 1", got)
	}
	// A cap above MCPasses must not raise the pass count.
	sur.SetMCPassCap(64)
	if got := sur.passes(); got != 8 {
		t.Fatalf("overwide cap raised passes to %d", got)
	}
	sur.SetMCPassCap(0)
	if got := sur.passes(); got != 8 {
		t.Fatalf("cleared cap: passes = %d, want 8", got)
	}
}

// TestBrownoutNoUQServesEverything is the bottom rung's contract: with a
// threshold so tight every stochastic query falls back to the oracle,
// BrownoutNoUQ (single pass → std identically 0) keeps every answer on
// the surrogate and the oracle cold.
func TestBrownoutNoUQServesEverything(t *testing.T) {
	w, _, oracleCalls := brownoutWrapper(t, 1e-12)
	rng := xrand.New(0x77)
	x := func() []float64 { return []float64{rng.Range(-1, 1), rng.Range(-1, 1)} }

	// Level 0: the tight threshold sends stochastic queries to the oracle.
	for i := 0; i < 8; i++ {
		if _, _, _, err := w.Query(x()); err != nil {
			t.Fatal(err)
		}
	}
	if oracleCalls.Load() == 0 {
		t.Fatal("threshold 1e-12 with dropout 0.3 never reached the oracle; test premise broken")
	}

	w.SetBrownoutLevel(BrownoutNoUQ)
	if w.BrownoutLevel() != BrownoutNoUQ {
		t.Fatalf("level = %d, want %d", w.BrownoutLevel(), BrownoutNoUQ)
	}
	before := oracleCalls.Load()
	for i := 0; i < 32; i++ {
		_, src, _, err := w.Query(x())
		if err != nil {
			t.Fatal(err)
		}
		if src != FromSurrogate {
			t.Fatalf("browned-out query %d served from %v, want surrogate", i, src)
		}
	}
	if got := oracleCalls.Load(); got != before {
		t.Fatalf("oracle called %d times under BrownoutNoUQ, want 0", got-before)
	}

	// Recovery: stepping back to 0 restores the UQ gate and the oracle
	// fallback with it.
	w.SetBrownoutLevel(BrownoutOff)
	before = oracleCalls.Load()
	for i := 0; i < 16; i++ {
		if _, _, _, err := w.Query(x()); err != nil {
			t.Fatal(err)
		}
	}
	if oracleCalls.Load() == before {
		t.Fatal("oracle fallback did not resume after brownout lifted")
	}
}

// TestBrownoutPreferQuant asserts the first rung: a wrapper configured
// with Quantized off but holding a compiled quantized program starts
// serving through it at BrownoutPreferQuant.
func TestBrownoutPreferQuant(t *testing.T) {
	// Deterministic surrogate with a compiled quantized program, but the
	// wrapper prefers the float path (Quantized false).
	rng := xrand.New(0x9a27)
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{math.Sin(x[0]) + 0.5*x[1]}, nil
	}}
	sur := NewNNSurrogate(2, 1, []int{16}, 0, rng)
	sur.Epochs = 50
	sur.MCPasses = 8
	sur.Quantize = true // compile the int8 program even though the wrapper prefers float
	w := NewWrapper(oracle, sur, WrapperConfig{MinTrainSamples: 10, UQThreshold: 100})
	design := tensor.NewMatrix(40, 2)
	for i := 0; i < design.Rows; i++ {
		design.Set(i, 0, rng.Range(-1, 1))
		design.Set(i, 1, rng.Range(-1, 1))
	}
	if err := w.Pretrain(design); err != nil {
		t.Fatal(err)
	}
	if !sur.QuantizedReady() {
		t.Fatal("quantized program not compiled on Pretrain")
	}

	x := []float64{0.25, -0.5}
	if _, _, _, err := w.Query(x); err != nil {
		t.Fatal(err)
	}
	if q, _ := w.QuantStats(); q != 0 {
		t.Fatalf("float-preferring wrapper served %d quant queries at level 0", q)
	}
	w.SetBrownoutLevel(BrownoutPreferQuant)
	const n = 16
	for i := 0; i < n; i++ {
		if _, _, _, err := w.Query(x); err != nil {
			t.Fatal(err)
		}
	}
	if q, _ := w.QuantStats(); q != n {
		t.Fatalf("quant queries = %d at BrownoutPreferQuant, want %d", q, n)
	}
}

// TestBrownoutClamps asserts out-of-range levels clamp to the ladder.
func TestBrownoutClamps(t *testing.T) {
	w, sur, _ := brownoutWrapper(t, 100)
	w.SetBrownoutLevel(99)
	if w.BrownoutLevel() != BrownoutNoUQ {
		t.Fatalf("level 99 clamped to %d, want %d", w.BrownoutLevel(), BrownoutNoUQ)
	}
	if got := sur.passes(); got != 1 {
		t.Fatalf("passes at clamped bottom = %d, want 1", got)
	}
	w.SetBrownoutLevel(-5)
	if w.BrownoutLevel() != BrownoutOff {
		t.Fatalf("level -5 clamped to %d, want 0", w.BrownoutLevel())
	}
	if got := sur.passes(); got != 8 {
		t.Fatalf("passes after clearing = %d, want 8", got)
	}
}

// TestShardedBrownoutPropagates asserts the sharded wrapper pushes the
// level into every published shard surrogate, including generations
// published after the brownout began.
func TestShardedBrownoutPropagates(t *testing.T) {
	rng := xrand.New(0x5A)
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{x[0] + x[1]}, nil
	}}
	// TrainAll fits the shards concurrently: the factory must be the
	// goroutine-safe one.
	factory := NewNNSurrogateFactory(2, 1, []int{8}, 0.3, xrand.New(100), func(s *NNSurrogate) {
		s.Epochs = 30
		s.MCPasses = 8
	})
	sw := NewShardedWrapper(oracle, factory, ShardedConfig{
		Shards: 2, MinTrainSamples: 8, UQThreshold: 100,
	})
	design := tensor.NewMatrix(32, 2)
	for i := 0; i < design.Rows; i++ {
		design.Set(i, 0, rng.Range(-1, 1))
		design.Set(i, 1, rng.Range(-1, 1))
	}
	if err := sw.Pretrain(design); err != nil {
		t.Fatal(err)
	}

	sw.SetBrownoutLevel(BrownoutReducedMC)
	if sw.BrownoutLevel() != BrownoutReducedMC {
		t.Fatalf("level = %d, want %d", sw.BrownoutLevel(), BrownoutReducedMC)
	}
	for i, sh := range sw.shards {
		sur := *sh.active.Load()
		ns, ok := sur.(*NNSurrogate)
		if !ok {
			t.Fatalf("shard %d surrogate is %T", i, sur)
		}
		if got := ns.passes(); got != brownoutMCPasses {
			t.Fatalf("shard %d passes = %d, want %d", i, got, brownoutMCPasses)
		}
	}

	// A retrain that publishes mid-brownout must come out already capped.
	if err := sw.TrainAll(); err != nil {
		t.Fatal(err)
	}
	for i, sh := range sw.shards {
		ns := (*sh.active.Load()).(*NNSurrogate)
		if got := ns.passes(); got != brownoutMCPasses {
			t.Fatalf("shard %d republished uncapped: passes = %d, want %d", i, got, brownoutMCPasses)
		}
	}

	sw.SetBrownoutLevel(BrownoutOff)
	for i, sh := range sw.shards {
		ns := (*sh.active.Load()).(*NNSurrogate)
		if got := ns.passes(); got != 8 {
			t.Fatalf("shard %d still capped after recovery: passes = %d", i, got)
		}
	}
}
