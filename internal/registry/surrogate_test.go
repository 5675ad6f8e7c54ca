package registry

import (
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// countingOracle is a deterministic 2→1 oracle that counts Run calls —
// the zero-retraining proof reads the counter.
type countingOracle struct{ runs atomic.Int64 }

func (o *countingOracle) Dims() (int, int) { return 2, 1 }
func (o *countingOracle) Run(x []float64) ([]float64, error) {
	o.runs.Add(1)
	return []float64{math.Sin(3*x[0]) + 0.5*x[1]}, nil
}

func testDesign(n int, seed uint64) *tensor.Matrix {
	rng := xrand.New(seed)
	m := tensor.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		m.Set(i, 0, rng.Range(-1, 1))
		m.Set(i, 1, rng.Range(-1, 1))
	}
	return m
}

func testFactory(rng *xrand.Rand) core.SurrogateFactory {
	return core.NewNNSurrogateFactory(2, 1, []int{8}, 0.1, rng, func(s *core.NNSurrogate) {
		s.Epochs = 40
		s.MCPasses = 4
		s.Quantize = true
	})
}

// The full persistence loop: a sharded wrapper publishes every trained
// generation through its hook, a second process (fresh wrapper, fresh
// registry handle on the same dir) warm-starts from disk, serves
// bit-identical deterministic predictions, and never touches its oracle
// or trains — the crash-recovery contract end to end.
func TestPublishHookWarmStartBitIdentical(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "reg")
	reg, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	oracle := &countingOracle{}
	w := core.NewShardedWrapper(oracle, testFactory(xrand.New(1)), core.ShardedConfig{
		Router:          core.HashRouter{Shards: 2},
		MinTrainSamples: 8,
		UQThreshold:     1e9,
	})
	// Capture each published model alongside persisting it, so the live
	// in-memory generation is the reference the restored one must match.
	var mu sync.Mutex
	published := map[int]core.Surrogate{}
	persist := Publisher(reg, "tenant-a", func(si int, err error) { t.Errorf("publish shard %d: %v", si, err) })
	w.SetPublishHook(func(si int, sur core.Surrogate, residBase float64) {
		mu.Lock()
		published[si] = sur
		mu.Unlock()
		persist(si, sur, residBase)
	})
	if err := w.Pretrain(testDesign(60, 7)); err != nil {
		t.Fatal(err)
	}
	if len(published) != 2 {
		t.Fatalf("published %d shards, want 2", len(published))
	}
	for si := 0; si < 2; si++ {
		if gen, ok := reg.CurrentGeneration(ShardKey("tenant-a", si)); !ok || gen != 1 {
			t.Fatalf("shard %d: gen %d ok=%v, want 1", si, gen, ok)
		}
	}

	// "Restart": a second registry handle on the same directory and a
	// brand-new wrapper over an untouched oracle.
	reg2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	oracle2 := &countingOracle{}
	w2 := core.NewShardedWrapper(oracle2, testFactory(xrand.New(2)), core.ShardedConfig{
		Router:          core.HashRouter{Shards: 2},
		MinTrainSamples: 8,
		UQThreshold:     1e9,
	})
	rng := xrand.New(99)
	warmed := WarmStartSharded(reg2, "tenant-a", w2, rng, func(si int, err error) {
		t.Errorf("warm-start shard %d: %v", si, err)
	})
	if warmed != 2 {
		t.Fatalf("warmed %d shards, want 2", warmed)
	}
	for si, st := range w2.Status() {
		if st.Generation != -1 {
			t.Fatalf("shard %d generation %d after warm start, want -1", si, st.Generation)
		}
	}

	// Deterministic predictions must be bit-identical to the generation
	// that was encoded — mmap decode, scaler round-trip and all.
	probe := testDesign(40, 13)
	rng2 := xrand.New(99)
	for si := 0; si < 2; si++ {
		restored, _, gen, err := LoadSurrogate(reg2, ShardKey("tenant-a", si), rng2)
		if err != nil {
			t.Fatal(err)
		}
		if gen != 1 {
			t.Fatalf("shard %d loaded gen %d, want 1", si, gen)
		}
		live := published[si].(*core.NNSurrogate)
		for i := 0; i < probe.Rows; i++ {
			x := probe.Row(i)
			got, want := core.Predict(restored, x), core.Predict(live, x)
			if got[0] != want[0] {
				t.Fatalf("shard %d row %d: restored %v, live %v", si, i, got, want)
			}
		}
		var lb, rb tensor.Matrix
		live.PredictInto(probe, &lb, nil)
		restored.PredictInto(probe, &rb, nil)
		for i := 0; i < probe.Rows; i++ {
			if lb.At(i, 0) != rb.At(i, 0) {
				t.Fatalf("shard %d batch row %d: restored %v, live %v", si, i, rb.At(i, 0), lb.At(i, 0))
			}
		}
		if live.QuantizedReady() != restored.QuantizedReady() {
			t.Fatalf("shard %d quantized readiness diverged", si)
		}
	}

	// Zero retraining: the warm wrapper serves its whole query load from
	// the restored models — no oracle runs, no training samples, no refit.
	for i := 0; i < probe.Rows; i++ {
		_, src, _, err := w2.Query(probe.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if src != core.FromSurrogate {
			t.Fatalf("row %d served from %v, want surrogate", i, src)
		}
	}
	if n := oracle2.runs.Load(); n != 0 {
		t.Fatalf("warm-started wrapper ran the oracle %d times", n)
	}
	if n := w2.TrainingSetSize(); n != 0 {
		t.Fatalf("warm-started wrapper accumulated %d samples", n)
	}
}

// A wrapper that trained live refuses a warm start, and a one-shard
// (unsharded) tenant warm-starts through the same registry path as any
// other — drift baseline included.
func TestWarmStartWrapperAndPrecedence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "reg")
	reg, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	warmStart := func(w *core.ShardedWrapper) int {
		return WarmStartSharded(reg, "single", w, xrand.New(4), func(si int, err error) {
			t.Errorf("warm-start shard %d: %v", si, err)
		})
	}

	oracle := &countingOracle{}
	cfg := core.ShardedConfig{Shards: 1, MinTrainSamples: 8, UQThreshold: 1e9}
	w := core.NewShardedWrapper(oracle, testFactory(xrand.New(3)), cfg)
	w.SetPublishHook(Publisher(reg, "single", func(_ int, err error) { t.Errorf("publish: %v", err) }))
	if err := w.Pretrain(testDesign(30, 5)); err != nil {
		t.Fatal(err)
	}
	if gen, ok := reg.CurrentGeneration(ShardKey("single", 0)); !ok || gen != 1 {
		t.Fatalf("gen %d ok=%v, want 1", gen, ok)
	}

	// Live-trained wrapper: warm start must refuse.
	if n := warmStart(w); n != 0 {
		t.Fatalf("warm start over a live model installed %d shards", n)
	}

	// Fresh wrapper: warm start installs and serves oracle-free.
	oracle2 := &countingOracle{}
	w2 := core.NewShardedWrapper(oracle2, testFactory(xrand.New(6)), cfg)
	if n := warmStart(w2); n != 1 {
		t.Fatalf("warm start installed %d shards, want 1", n)
	}
	if _, src, _, err := w2.Query([]float64{0.3, -0.2}); err != nil || src != core.FromSurrogate {
		t.Fatalf("src=%v err=%v", src, err)
	}
	if n := oracle2.runs.Load(); n != 0 {
		t.Fatalf("oracle ran %d times after warm start", n)
	}
	// The artifact's drift baseline came along: the restored shard starts
	// with its residual EWMA at the publisher's (non-zero) in-sample
	// residual, exactly where the live wrapper's stands.
	if live, warm := w.Status()[0].DriftRatio, w2.Status()[0].DriftRatio; live != 1 || warm != 1 {
		t.Fatalf("drift ratio live %v, warm-started %v; want both at their baseline (1)", live, warm)
	}
}

// RollbackShard restores the predecessor generation from disk and
// reinstalls it as a fresh wrapper generation.
func TestRollbackShardReinstalls(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "reg")
	reg, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	oracle := &countingOracle{}
	w := core.NewShardedWrapper(oracle, testFactory(xrand.New(11)), core.ShardedConfig{
		Router:          core.HashRouter{Shards: 1},
		MinTrainSamples: 8,
		UQThreshold:     1e9,
	})
	w.SetPublishHook(Publisher(reg, "ten", func(si int, err error) { t.Errorf("publish: %v", err) }))
	if err := w.Pretrain(testDesign(30, 21)); err != nil {
		t.Fatal(err)
	}
	if err := w.TrainAll(); err != nil {
		t.Fatal(err)
	}
	key := ShardKey("ten", 0)
	if gen, _ := reg.CurrentGeneration(key); gen != 2 {
		t.Fatalf("gen %d, want 2", gen)
	}
	genBefore := w.Status()[0].Generation

	gen, err := RollbackShard(reg, "ten", 0, w, xrand.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("rolled back to gen %d, want 1", gen)
	}
	if g, _ := reg.CurrentGeneration(key); g != 1 {
		t.Fatalf("registry gen %d after rollback, want 1", g)
	}
	st := w.Status()[0]
	if st.Generation <= genBefore {
		t.Fatalf("reinstall generation %d did not outrank %d", st.Generation, genBefore)
	}
	if st.Drifted {
		t.Fatal("reinstall left shard drifted")
	}
	// The reinstalled model serves.
	if _, src, _, err := w.Query([]float64{0.1, 0.4}); err != nil || src != core.FromSurrogate {
		t.Fatalf("src=%v err=%v", src, err)
	}
	if ns := reg.NameStats(key); ns.Publishes != 2 || ns.Rollbacks != 1 {
		t.Fatalf("stats %+v", ns)
	}
}
