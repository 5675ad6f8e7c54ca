package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/raceflag"
	"repro/internal/surrogatetest"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// This file is the wrapper's contract table: every serving behaviour the
// MLaroundHPC runtime promises, each run at one shard (the unsharded
// runtime) and at four (the partitioned one). A behaviour that only
// exists with several shards — routing, the generation-ordered publish
// race, drift — lives in sharded_test.go and driftquery_test.go.

// forShards runs one contract row at every partition width.
func forShards(t *testing.T, row func(t *testing.T, shards int)) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { row(t, shards) })
	}
}

// atomicOracle is a concurrency-safe, call-counting analytic oracle:
// sin(x0) + x1/2.
type atomicOracle struct {
	calls atomic.Int64
}

func (o *atomicOracle) Dims() (int, int) { return 2, 1 }

func (o *atomicOracle) Run(x []float64) ([]float64, error) {
	o.calls.Add(1)
	return []float64{math.Sin(x[0]) + 0.5*x[1]}, nil
}

// uniformRows draws rows points from [-r0, r0] x [-r1, r1].
func uniformRows(rng *xrand.Rand, rows int, r0, r1 float64) *tensor.Matrix {
	m := tensor.NewMatrix(rows, 2)
	for i := 0; i < rows; i++ {
		m.Set(i, 0, rng.Range(-r0, r0))
		m.Set(i, 1, rng.Range(-r1, r1))
	}
	return m
}

// contractFactory produces the small dropout MLP the contract rows serve
// from: 2→16→1, 50 epochs, 8 MC passes, tuned further by configure. It
// seeds from a stream split off rng, so a row can keep drawing from rng
// while background refits call the factory.
func contractFactory(rng *xrand.Rand, dropout float64, configure func(*NNSurrogate)) SurrogateFactory {
	return NewNNSurrogateFactory(2, 1, []int{16}, dropout, rng.Split(), func(s *NNSurrogate) {
		s.Epochs = 50
		s.MCPasses = 8
		if configure != nil {
			configure(s)
		}
	})
}

// pretrainedWrapper returns a wrapper over oracle whose every shard has
// fit 40 design points from [-1, 1]^2 (MinTrainSamples defaults to 10).
func pretrainedWrapper(t testing.TB, oracle Oracle, shards int, seed uint64, dropout float64, cfg ShardedConfig, configure func(*NNSurrogate)) *ShardedWrapper {
	t.Helper()
	rng := xrand.New(seed)
	cfg.Shards = shards
	if cfg.MinTrainSamples == 0 {
		cfg.MinTrainSamples = 10
	}
	w := NewShardedWrapper(oracle, contractFactory(rng, dropout, configure), cfg)
	if err := w.Pretrain(uniformRows(rng, 40*shards, 1, 1)); err != nil {
		t.Fatal(err)
	}
	for si, st := range w.Status() {
		if st.Generation < 0 {
			t.Fatalf("pretraining left shard %d without a model", si)
		}
	}
	return w
}

// publishedFor returns the model serving x's shard.
func publishedFor(t testing.TB, w *ShardedWrapper, x []float64) *NNSurrogate {
	t.Helper()
	surp := w.shards[w.Route(x)].active.Load()
	if surp == nil {
		t.Fatalf("shard %d has no published model", w.Route(x))
	}
	return (*surp).(*NNSurrogate)
}

// eachPublished visits every shard's serving model.
func eachPublished(t testing.TB, w *ShardedWrapper, visit func(shard int, sur *NNSurrogate)) {
	t.Helper()
	for si, sh := range w.shards {
		surp := sh.active.Load()
		if surp == nil {
			t.Fatalf("shard %d has no published model", si)
		}
		visit(si, (*surp).(*NNSurrogate))
	}
}

func TestWrapperColdStartUsesSimulation(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		w := NewShardedWrapper(&atomicOracle{}, contractFactory(xrand.New(5), 0.1, nil), ShardedConfig{
			Shards: shards, MinTrainSamples: 10, UQThreshold: 0.05,
		})
		y, src, _, err := w.Query([]float64{0.3, 0.4})
		if err != nil {
			t.Fatal(err)
		}
		if src != FromSimulation {
			t.Fatal("cold wrapper should simulate")
		}
		want := math.Sin(0.3) + 0.2
		if math.Abs(y[0]-want) > 1e-12 {
			t.Fatalf("wrapper altered simulation answer: %g want %g", y[0], want)
		}
		if w.TrainingSetSize() != 1 {
			t.Fatalf("training set size %d want 1", w.TrainingSetSize())
		}
	})
}

// TestWrapperShiftsToSurrogate is the online loop: MinTrainSamples oracle
// runs per shard trigger the first fit in the background, and once Wait
// has seen it publish, confident queries stop reaching the simulation.
func TestWrapperShiftsToSurrogate(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		rng := xrand.New(6)
		oracle := &atomicOracle{}
		w := NewShardedWrapper(oracle, contractFactory(rng, 0.1, func(s *NNSurrogate) {
			s.Epochs = 150
			s.MCPasses = 20
		}), ShardedConfig{Shards: shards, MinTrainSamples: 30, UQThreshold: 0.2})
		warmup := uniformRows(rng, 60*shards, 2, 1)
		for i := 0; i < warmup.Rows; i++ {
			if _, _, _, err := w.Query(warmup.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Wait(); err != nil {
			t.Fatal(err)
		}
		before := w.Ledger().NLookup
		surrogateHits := 0
		for i := 0; i < 50; i++ {
			_, src, _, err := w.Query([]float64{rng.Range(-2, 2), rng.Range(-1, 1)})
			if err != nil {
				t.Fatal(err)
			}
			if src == FromSurrogate {
				surrogateHits++
			}
		}
		if surrogateHits == 0 {
			t.Fatal("wrapper never served from surrogate after training")
		}
		led := w.Ledger()
		if led.NLookup-before != surrogateHits {
			t.Fatalf("ledger lookups %d != observed %d", led.NLookup-before, surrogateHits)
		}
		if led.NTrainingRuns < 1 {
			t.Fatal("ledger recorded no training runs")
		}
		if f := led.SurrogateFraction(); f <= 0 || f >= 1 {
			t.Fatalf("surrogate fraction %g not in (0,1)", f)
		}
	})
}

func TestWrapperStrictGateAlwaysSimulates(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		w := pretrainedWrapper(t, &atomicOracle{}, shards, 7, 0.1, ShardedConfig{
			UQThreshold: 0, // impossible gate for a dropout surrogate
		}, nil)
		rng := xrand.New(70)
		for i := 0; i < 40; i++ {
			_, src, _, err := w.Query([]float64{rng.Range(-1, 1), rng.Range(-1, 1)})
			if err != nil {
				t.Fatal(err)
			}
			if src == FromSurrogate {
				t.Fatal("zero-threshold gate must reject all surrogate answers")
			}
		}
		if got := w.Ledger().NRejected; got != 40 {
			t.Fatalf("%d rejected lookups recorded, want 40", got)
		}
	})
}

// TestWrapperPropagatesOracleError: a failed run is the caller's error
// and the ledger's, and never a training sample — on the single-query and
// on the batch path.
func TestWrapperPropagatesOracleError(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
			if x[0] > 0 {
				return nil, errors.New("synthetic failure")
			}
			return []float64{x[0]}, nil
		}}
		w := NewShardedWrapper(oracle, contractFactory(xrand.New(8), 0.1, nil), ShardedConfig{
			Shards: shards, MinTrainSamples: 100,
		})
		if _, _, _, err := w.Query([]float64{1, 0}); err == nil {
			t.Fatal("oracle failure should propagate")
		}
		res, err := w.QueryBatch(tensor.FromRows([][]float64{{1, 1}, {-1, 0}, {2, 0}}))
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Err == nil || res[1].Err != nil || res[2].Err == nil {
			t.Fatalf("per-row errors wrong: %v %v %v", res[0].Err, res[1].Err, res[2].Err)
		}
		if got := w.Ledger().NFailed; got != 3 {
			t.Fatalf("%d failed runs recorded, want 3", got)
		}
		if got := w.TrainingSetSize(); got != 1 {
			t.Fatalf("training set holds %d samples, want only the one successful run", got)
		}
	})
}

func TestWrapperPretrain(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		oracle := &atomicOracle{}
		w := pretrainedWrapper(t, oracle, shards, 9, 0.1, ShardedConfig{UQThreshold: 0.3}, nil)
		led := w.Ledger()
		if led.NTrain != 40*shards || led.NTrainingRuns != shards || int(oracle.calls.Load()) != 40*shards {
			t.Fatalf("pretrain ledger after %d oracle runs: %+v", oracle.calls.Load(), led)
		}
		_, src, std, err := w.Query([]float64{0.1, 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if src == FromSurrogate && (len(std) != 1 || std[0] <= 0) {
			t.Fatal("surrogate answer missing UQ")
		}
	})
}

// TestWrapperConcurrentQueries hammers Query and QueryBatch from many
// goroutines, with the UQ threshold at the surrogate's median std so
// about half the rows fall back to the oracle and query-path refits keep
// publishing underneath. It locks in the concurrency contract: lookups
// read the published model through one atomic load, sample appends take
// the shard lock, and the ledger agrees with what the callers saw. Run
// with -race.
func TestWrapperConcurrentQueries(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		w := pretrainedWrapper(t, &atomicOracle{}, shards, 404, 0.1, ShardedConfig{
			RetrainEvery: 10, UQThreshold: 0.06,
		}, nil)
		pretrained := w.Ledger().NTrain
		var surrogateHits atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				grng := xrand.New(seed)
				for it := 0; it < 25; it++ {
					if it%3 != 0 {
						y, src, _, err := w.Query([]float64{grng.Range(-1, 1), grng.Range(-1, 1)})
						if err != nil || len(y) != 1 {
							t.Errorf("query failed: %v %v", y, err)
							return
						}
						if src == FromSurrogate {
							surrogateHits.Add(1)
						}
						continue
					}
					res, err := w.QueryBatch(uniformRows(grng, 8, 1, 1))
					if err != nil {
						t.Error(err)
						return
					}
					for i, r := range res {
						if r.Err != nil || len(r.Y) != 1 {
							t.Errorf("row %d bad result %+v", i, r)
							return
						}
						if r.Src == FromSurrogate {
							surrogateHits.Add(1)
						}
					}
				}
			}(uint64(500 + g))
		}
		wg.Wait()
		if err := w.Wait(); err != nil {
			t.Fatal(err)
		}
		led := w.Ledger()
		if led.NLookup == 0 || led.NLookup != int(surrogateHits.Load()) {
			t.Fatalf("ledger lookups %d != observed surrogate answers %d", led.NLookup, surrogateHits.Load())
		}
		if got := w.TrainingSetSize(); got != led.NTrain {
			t.Fatalf("training set size %d != ledger simulations %d", got, led.NTrain)
		}
		if led.NTrain == pretrained || led.NTrainingRuns <= shards {
			t.Fatalf("hammer forced no fallbacks or no refits: %+v", led)
		}
	})
}

// gateStub is a deterministic surrogate: rows with |x0| <= 2 pass the UQ
// gate (std 0), others are rejected (std 1). It lets the batch semantics
// rows pin the wrapper's routing and accounting exactly.
func gateStub() *surrogatetest.Rows {
	return &surrogatetest.Rows{Row: func(x []float64) ([]float64, []float64) {
		sd := 0.0
		if math.Abs(x[0]) > 2 {
			sd = 1
		}
		return []float64{42}, []float64{sd}
	}}
}

// gateStubWrapper publishes a gateStub on every shard of a wrapper over
// oracle, seeded through Ingest so the oracle and the ledger stay cold.
func gateStubWrapper(t *testing.T, oracle Oracle, cfg ShardedConfig) *ShardedWrapper {
	t.Helper()
	cfg.UQThreshold, cfg.MinTrainSamples = 0.5, 1
	w := NewShardedWrapper(oracle, func() Surrogate { return gateStub() }, cfg)
	seedX := uniformRows(xrand.New(91), 16*w.NumShards(), 2, 1)
	if err := w.Ingest(seedX, tensor.NewMatrix(seedX.Rows, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.TrainAll(); err != nil {
		t.Fatal(err)
	}
	for si, st := range w.Status() {
		if st.Generation < 0 {
			t.Fatalf("seed corpus left shard %d empty; pick different seed points", si)
		}
	}
	return w
}

// TestQueryBatchMatchesQuerySemantics checks the batch path against the
// row-wise Query path on the same rows: same provenance, same answers,
// same training-set growth and the same ledger counts.
func TestQueryBatchMatchesQuerySemantics(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		rng := xrand.New(405)
		batch := uniformRows(rng, 16, 1, 1) // in-gate rows, served by the surrogate
		for i := 8; i < 16; i++ {           // out-of-gate rows must simulate
			batch.Set(i, 0, rng.Range(80, 100))
			batch.Set(i, 1, rng.Range(80, 100))
		}
		batchOracle, rowOracle := &atomicOracle{}, &atomicOracle{}
		wb := gateStubWrapper(t, batchOracle, ShardedConfig{Shards: shards, OracleWorkers: 4})
		wr := gateStubWrapper(t, rowOracle, ShardedConfig{Shards: shards})
		seeded := wb.TrainingSetSize()
		res := make([]BatchResult, batch.Rows)
		if err := wb.QueryBatchInto(batch, res); err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			y, src, std, err := wr.Query(batch.Row(i))
			if err != nil || r.Err != nil {
				t.Fatalf("row %d: batch err %v, query err %v", i, r.Err, err)
			}
			if r.Src != src || r.Y[0] != y[0] || len(r.Std) != len(std) {
				t.Fatalf("row %d: batch answered %+v, Query answered %v from %v (std %v)", i, r, y, src, std)
			}
			if want := i < 8; (r.Src == FromSurrogate) != want {
				t.Fatalf("row %d served from %v", i, r.Src)
			}
			if truth := math.Sin(batch.At(i, 0)) + 0.5*batch.At(i, 1); i >= 8 && math.Abs(r.Y[0]-truth) > 1e-12 {
				t.Fatalf("simulated row %d altered: %g want %g", i, r.Y[0], truth)
			}
		}
		if got := batchOracle.calls.Load(); got != 8 || rowOracle.calls.Load() != 8 {
			t.Fatalf("oracle ran %d (batch) / %d (row-wise) times, want 8 each", got, rowOracle.calls.Load())
		}
		if grew := wb.TrainingSetSize() - seeded; grew != 8 || wr.TrainingSetSize() != wb.TrainingSetSize() {
			t.Fatalf("training set grew by %d (row-wise %d), want 8", grew, wr.TrainingSetSize()-seeded)
		}
		lb, lr := wb.Ledger(), wr.Ledger()
		if lb.NLookup != 8 || lb.NRejected != 8 || lb.NTrain != 8 {
			t.Fatalf("ledger accounting wrong: %+v", lb)
		}
		if lb.NLookup != lr.NLookup || lb.NRejected != lr.NRejected || lb.NTrain != lr.NTrain {
			t.Fatalf("batch ledger %+v disagrees with row-wise ledger %+v", lb, lr)
		}
		if err := wb.Wait(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestQueryBatchEmptyAndColdStart covers the degenerate paths.
func TestQueryBatchEmptyAndColdStart(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		oracle := &atomicOracle{}
		w := NewShardedWrapper(oracle, contractFactory(xrand.New(406), 0.1, nil), ShardedConfig{
			Shards: shards, MinTrainSamples: 1000, UQThreshold: 0.5,
		})
		if res, err := w.QueryBatch(tensor.NewMatrix(0, 2)); err != nil || res != nil {
			t.Fatalf("empty batch: %v %v", res, err)
		}
		if err := w.QueryBatchInto(tensor.NewMatrix(4, 2), make([]BatchResult, 3)); err == nil {
			t.Fatal("result slice shorter than the batch was accepted")
		}
		res, err := w.QueryBatch(tensor.NewMatrix(4, 2))
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Src != FromSimulation || r.Err != nil {
				t.Fatalf("cold-start row %d should simulate: %+v", i, r)
			}
		}
		if oracle.calls.Load() != 4 {
			t.Fatalf("oracle calls %d want 4", oracle.calls.Load())
		}
	})
}

// TestQueryBatchOracleFanout proves the rejected-row fallback really runs
// oracles concurrently: with 4 workers and 4 misses, all 4 calls must be
// in flight at once for any to complete.
func TestQueryBatchOracleFanout(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		oracle := &barrierOracle{need: 4, release: make(chan struct{})}
		rng := xrand.New(17)
		w := NewShardedWrapper(oracle, contractFactory(rng, 0.1, nil), ShardedConfig{
			Shards: shards, MinTrainSamples: 1 << 30, UQThreshold: 0.5, OracleWorkers: 4,
		})
		batch := uniformRows(rng, 4, 1, 1)
		res, err := w.QueryBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("row %d: %v", i, r.Err)
			}
			if r.Src != FromSimulation || r.Y[0] != batch.At(i, 0) {
				t.Fatalf("row %d wrong answer %+v", i, r)
			}
		}
	})
}

// TestQueryBatchIntoZeroAlloc pins the serving contract: a steady-state
// QueryBatchInto loop that reuses one result slice performs zero heap
// allocations — shard partition, gather buffer, surrogate staging, UQ
// scratch, miss list and per-row result buffers are all pooled or reused.
func TestQueryBatchIntoZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items under -race; alloc counts through pooled paths are meaningless")
	}
	forShards(t, func(t *testing.T, shards int) {
		w := pretrainedWrapper(t, &atomicOracle{}, shards, 0xbb17c, 0.1, ShardedConfig{UQThreshold: 100}, nil)
		batch := uniformRows(xrand.New(0xa5), 64, 1, 1)
		res := make([]BatchResult, batch.Rows)
		if err := w.QueryBatchInto(batch, res); err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Src != FromSurrogate {
				t.Fatalf("row %d fell back to the oracle; alloc pin needs pure surrogate serving", i)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := w.QueryBatchInto(batch, res); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state QueryBatchInto allocates %g times per batch, want 0", allocs)
		}
	})
}

// TestQueryServingAllocs pins the single-query serving cost: a
// surrogate-served Query runs the compiled kernel through pooled staging
// buffers, leaving only the caller-owned result vector — at most 2
// allocations per query.
func TestQueryServingAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items under -race; alloc counts through pooled paths are meaningless")
	}
	forShards(t, func(t *testing.T, shards int) {
		w := pretrainedWrapper(t, &atomicOracle{}, shards, 0xa110c, 0.1, ShardedConfig{UQThreshold: 100}, nil)
		x := []float64{0.3, -0.2}
		if _, src, _, err := w.Query(x); err != nil || src != FromSurrogate {
			t.Fatalf("warmup query src=%v err=%v, want surrogate hit", src, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, _, err := w.Query(x); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("surrogate-served Query allocates %g times, want <= 2", allocs)
		}
	})
}

// TestQueryBatchChunksWiderThanCompiledWidth checks that batches wider
// than the surrogate's compiled MaxBatch are split across fused chunks
// with identical results to single-row predictions (deterministic
// surrogate: no dropout, so predictions are exactly reproducible).
func TestQueryBatchChunksWiderThanCompiledWidth(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		w := pretrainedWrapper(t, &atomicOracle{}, shards, 0xbb17c, 0, ShardedConfig{UQThreshold: 100},
			func(s *NNSurrogate) { s.MaxBatch = 4 })
		batch := uniformRows(xrand.New(0xa6), 30*shards, 1, 1) // ~30 rows a shard: 8 chunks of 4
		res, err := w.QueryBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if res[i].Src != FromSurrogate {
				t.Fatalf("row %d not surrogate-served", i)
			}
			want := Predict(publishedFor(t, w, batch.Row(i)), batch.Row(i))
			if math.Abs(res[i].Y[0]-want[0]) > 1e-12 {
				t.Fatalf("row %d: chunked batch %g vs single predict %g", i, res[i].Y[0], want[0])
			}
			if res[i].Std[0] != 0 {
				t.Fatalf("deterministic surrogate row %d std %g, want 0", i, res[i].Std[0])
			}
		}
	})
}

// TestWrapperRetentionBoundsTrainingSet runs a wrapper whose UQ gate
// always fails (so every query feeds the training set) and checks every
// shard's window stays bounded while refits keep succeeding.
func TestWrapperRetentionBoundsTrainingSet(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		rng := xrand.New(0x7e7a1)
		const window = 30
		w := NewShardedWrapper(&atomicOracle{}, contractFactory(rng, 0.1, func(s *NNSurrogate) {
			s.Epochs = 5
			s.MCPasses = 4
		}), ShardedConfig{
			Shards: shards, MinTrainSamples: 10, RetrainEvery: 25, UQThreshold: -1, // gate never passes
			Retention: Retention{Policy: RetainWindow, MaxSamples: window},
		})
		for i := 0; i < 300*shards; i++ {
			x := []float64{rng.Range(-1, 1), rng.Range(-1, 1)}
			if _, src, _, err := w.Query(x); err != nil || src != FromSimulation {
				t.Fatalf("query %d: src=%v err=%v", i, src, err)
			}
			if n := w.ShardSizes()[w.Route(x)]; n > window+window/4 {
				t.Fatalf("shard window grew to %d rows, want <= %d", n, window+window/4)
			}
		}
		if err := w.Wait(); err != nil {
			t.Fatal(err)
		}
		for si, st := range w.Status() {
			if st.Generation < 1 {
				t.Fatalf("shard %d published generation %d: refits did not keep firing under retention", si, st.Generation)
			}
		}
	})
}

// TestRetentionClampedToMinTrain checks that a window smaller than
// MinTrainSamples is raised so the first fit stays reachable.
func TestRetentionClampedToMinTrain(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		rng := xrand.New(0x7e7a3)
		w := NewShardedWrapper(&atomicOracle{}, contractFactory(rng, 0.1, func(s *NNSurrogate) { s.Epochs = 5 }), ShardedConfig{
			Shards: shards, MinTrainSamples: 20, UQThreshold: 100,
			Retention: Retention{Policy: RetainWindow, MaxSamples: 5}, // below MinTrainSamples
		})
		// Ingest never trains: every shard is still cold when the stream
		// ends, so what it retained is what a first fit could see.
		stream := uniformRows(rng, 60*shards, 1, 1)
		if err := w.Ingest(stream, tensor.NewMatrix(stream.Rows, 1)); err != nil {
			t.Fatal(err)
		}
		if n := w.RefitStale(); n != shards {
			t.Fatalf("%d of %d shards reached their first fit: retention window was not clamped to MinTrainSamples (shard sizes %v)",
				n, shards, w.ShardSizes())
		}
		if err := w.Wait(); err != nil {
			t.Fatal(err)
		}
	})
}

// quantWrapper builds a pretrained wrapper serving its quantized
// programs. Dropout 0 keeps MC passes deterministic, so quant answers are
// exactly reproducible and the predictive std is exactly zero.
func quantWrapper(t *testing.T, shards int, uqThreshold float64) *ShardedWrapper {
	t.Helper()
	w := pretrainedWrapper(t, &atomicOracle{}, shards, 0x9a27, 0, ShardedConfig{
		UQThreshold: uqThreshold, Quantized: true,
	}, nil)
	eachPublished(t, w, func(si int, sur *NNSurrogate) {
		if !sur.QuantizedReady() {
			t.Fatalf("shard %d: Quantized wrapper did not compile a quantized program on Pretrain", si)
		}
	})
	return w
}

// TestWrapperQuantizedServing checks the headline contract: a Quantized
// wrapper serves lookups through the int8 program, counts them, and the
// answers stay within the compile-time error bound of the float program.
func TestWrapperQuantizedServing(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		w := quantWrapper(t, shards, 100) // threshold far above the gate band
		rng := xrand.New(0x51)
		const n = 25
		for k := 0; k < n; k++ {
			// Well inside the design square: a shard's calibration envelope
			// comes from its last ten design rows.
			x := []float64{rng.Range(-0.5, 0.5), rng.Range(-0.5, 0.5)}
			y, src, _, err := w.Query(x)
			if err != nil {
				t.Fatal(err)
			}
			if src != FromSurrogate {
				t.Fatalf("query %d not surrogate-served", k)
			}
			sur := publishedFor(t, w, x)
			want := Predict(sur, x)
			if math.Abs(y[0]-want[0]) > sur.QuantErrorBound()+1e-12 {
				t.Fatalf("query %d: quantized %g vs float %g exceeds bound %g",
					k, y[0], want[0], sur.QuantErrorBound())
			}
		}
		queries, fallbacks := w.QuantStats()
		if queries != n {
			t.Fatalf("quant queries = %d, want %d", queries, n)
		}
		if fallbacks != 0 {
			t.Fatalf("unexpected fallbacks = %d with threshold far outside the gate band", fallbacks)
		}
	})
}

// TestWrapperQuantBoundaryFallback forces the accept/reject decision into
// the quantization error band: with a deterministic surrogate the
// predictive std is exactly 0, so a threshold of ~0 sits within
// QuantGateBound of the measured std and every lookup must re-run on the
// retained float program.
func TestWrapperQuantBoundaryFallback(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		w := quantWrapper(t, shards, 1e-9)
		eachPublished(t, w, func(si int, sur *NNSurrogate) {
			if sur.QuantGateBound() <= 1e-9 {
				t.Fatalf("shard %d gate bound %g too small to straddle the test threshold", si, sur.QuantGateBound())
			}
		})
		rng := xrand.New(0x52)
		const n = 10
		for k := 0; k < n; k++ {
			x := []float64{rng.Range(-1, 1), rng.Range(-1, 1)}
			_, src, _, err := w.Query(x)
			if err != nil {
				t.Fatal(err)
			}
			// std is exactly 0 <= threshold, so the float re-run still serves.
			if src != FromSurrogate {
				t.Fatalf("query %d not surrogate-served after float fallback", k)
			}
		}
		queries, fallbacks := w.QuantStats()
		if queries != n || fallbacks != n {
			t.Fatalf("boundary stats = (%d, %d), want every lookup counted and every lookup falling back (%d, %d)",
				queries, fallbacks, n, n)
		}
	})
}

// TestWrapperQuantClipFallback drives an input far outside the calibration
// envelope: QuantizeVec clips, the quantized pass reports !ok, and the
// lookup silently re-runs on the float program instead of serving a
// saturated int8 answer.
func TestWrapperQuantClipFallback(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		w := quantWrapper(t, shards, 100)
		x := []float64{60, -60} // trained on [-1,1]^2: clips after scaling
		y, src, _, err := w.Query(x)
		if err != nil {
			t.Fatal(err)
		}
		if src != FromSurrogate {
			t.Fatal("clipped query not surrogate-served")
		}
		want := Predict(publishedFor(t, w, x), x)
		if math.Abs(y[0]-want[0]) > 1e-12 {
			t.Fatalf("clipped query served %g, want exact float answer %g", y[0], want[0])
		}
		_, fallbacks := w.QuantStats()
		if fallbacks == 0 {
			t.Fatal("clipped input did not count a float fallback")
		}
	})
}

// TestWrapperQuantBatchMatchesSingle checks the batched quantized path
// agrees with single-point quantized queries — guardrail included: the
// last row clips the envelope on both paths — and counts per-row stats.
func TestWrapperQuantBatchMatchesSingle(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		w := quantWrapper(t, shards, 100)
		batch := uniformRows(xrand.New(0x53), 17, 0.5, 0.5) // inside every shard's envelope
		batch.Row(16)[0], batch.Row(16)[1] = 60, -60
		res, err := w.QueryBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if q, f := w.QuantStats(); q != uint64(batch.Rows) || f != 1 {
			t.Fatalf("batch counted %d quant queries and %d fallbacks, want %d and 1", q, f, batch.Rows)
		}
		for i := range res {
			if res[i].Src != FromSurrogate {
				t.Fatalf("row %d not surrogate-served", i)
			}
			y, _, _, err := w.Query(batch.Row(i))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res[i].Y[0]-y[0]) > 1e-12 {
				t.Fatalf("row %d: batch %g vs single %g", i, res[i].Y[0], y[0])
			}
		}
		if q, f := w.QuantStats(); q != 2*uint64(batch.Rows) || f != 2 {
			t.Fatalf("row-wise pass left the counters at %d queries, %d fallbacks; want %d and 2", q, f, 2*batch.Rows)
		}
	})
}

// panicSur panics inside Train, the way user training code can.
func panicSur() *surrogatetest.Rows {
	return &surrogatetest.Rows{Fit: func(x, y *tensor.Matrix) error { panic("synthetic NaN blow-up") }}
}

// TestRefitPanicKeepsServing is the containment contract for user
// training code: a Train that panics on the background refit goroutine
// (or on a TrainAll worker) must not take the process down. The previous
// generation keeps serving, Wait reports the panic as the training
// error, the shard is left neither refitting nor in flight, and — the
// retrain credit restored — the very next sample retries.
func TestRefitPanicKeepsServing(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		var calls atomic.Int64
		factory := func() Surrogate {
			switch n := calls.Add(1); {
			case n <= int64(shards):
				return gateGenSur(1)
			case n == int64(shards)+1:
				return panicSur()
			default:
				return gateGenSur(2)
			}
		}
		// Cuts along x1, which both probe points below leave at 0: they
		// share a shard whatever the width.
		w := NewShardedWrapper(twoOutOracle(), factory, ShardedConfig{
			Router:      KDRouter{Dim: 1, Cuts: []float64{-0.5, 0, 0.5}[:shards-1]},
			UQThreshold: 0.5, MinTrainSamples: 1, RetrainEvery: 2,
		})
		seed := uniformRows(xrand.New(0xbad), 16*shards, 1, 1)
		if err := w.Ingest(seed, tensor.NewMatrix(seed.Rows, 2)); err != nil {
			t.Fatal(err)
		}
		if err := w.TrainAll(); err != nil { // generation 1 everywhere
			t.Fatal(err)
		}
		// Two rejected queries on one shard reach RetrainEvery and spawn
		// the refit whose Train panics.
		reject := []float64{10, 0}
		for i := 0; i < 2; i++ {
			if _, _, _, err := w.Query(reject); err != nil {
				t.Fatal(err)
			}
		}
		err := w.Wait()
		if err == nil || !strings.Contains(err.Error(), "synthetic NaN blow-up") {
			t.Fatalf("Wait returned %v, want the training panic", err)
		}
		if st := w.Status()[w.Route(reject)]; st.Refitting || st.Stale < 2 {
			t.Fatalf("panicked refit left the shard at %+v, want idle with its retrain credit back", st)
		}
		inGate := []float64{1, 0}
		if y, src, _, err := w.Query(inGate); err != nil || src != FromSurrogate || y[0] != 1 {
			t.Fatalf("after the panic the shard served %v from %v (err %v), want generation 1", y, src, err)
		}
		// One further sample retries; this fit succeeds.
		if _, _, _, err := w.Query(reject); err != nil {
			t.Fatal(err)
		}
		if err := w.Wait(); err != nil {
			t.Fatal(err)
		}
		if y, src, _, err := w.Query(inGate); err != nil || src != FromSurrogate || y[0] != 2 {
			t.Fatalf("retry served %v from %v (err %v), want generation 2", y, src, err)
		}

		// The synchronous path contains it too, as TrainAll's error.
		calls.Store(int64(shards)) // next factory product panics again
		if err := w.TrainAll(); err == nil || !strings.Contains(err.Error(), "synthetic NaN blow-up") {
			t.Fatalf("TrainAll returned %v, want the training panic", err)
		}
		if y, src, _, err := w.Query(inGate); err != nil || src != FromSurrogate || y[0] != 2 {
			t.Fatalf("after TrainAll's panic the shard served %v from %v (err %v), want generation 2", y, src, err)
		}
	})
}

// TestGateDecisionIsPure: the UQ gate decides a row the same way however
// and whenever it is asked. One trained shard (2→24→1, dropout 0.1, 10 MC
// passes) under a binding threshold answers 200 rows alone 20 times each,
// then inside 64-row and 130-row batches that place every row at every
// position — first, middle, last, and on both sides of the 64-row chunk
// boundary. Every row's source, mean and std are the same bits each time.
func TestGateDecisionIsPure(t *testing.T) {
	rng := xrand.New(0x13)
	factory := NewNNSurrogateFactory(2, 1, []int{24}, 0.1, rng.Split(), func(s *NNSurrogate) {
		s.Epochs, s.MCPasses = 40, 10
	})
	w := NewShardedWrapper(&atomicOracle{}, factory, ShardedConfig{Shards: 1, MinTrainSamples: 10})
	if err := w.Pretrain(uniformRows(rng, 256, 2, 1)); err != nil {
		t.Fatal(err)
	}
	xs := uniformRows(rng, 200, 2.5, 1.5) // partly off the training support
	// The rows' median std is the threshold, so the gate binds: about half
	// the rows are served, the rest simulated. Nothing has queried yet.
	var mean, std tensor.Matrix
	publishedFor(t, w, xs.Row(0)).PredictInto(xs, &mean, &std)
	stds := append([]float64(nil), std.Data...)
	slices.Sort(stds)
	w.cfg.UQThreshold = stds[len(stds)/2]

	want := make([]BatchResult, xs.Rows)
	served := 0
	for i := range want {
		y, src, sd, err := w.Query(xs.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = BatchResult{Y: y, Src: src, Std: sd}
		if src == FromSurrogate {
			served++
		}
	}
	if served == 0 || served == xs.Rows {
		t.Fatalf("%d of %d rows served: the threshold does not bind", served, xs.Rows)
	}
	flipped := map[int]bool{}
	same := func(what string, i int, got BatchResult) {
		t.Helper()
		w := want[i]
		eq := got.Src == w.Src && got.Err == nil && len(got.Y) == len(w.Y) && len(got.Std) == len(w.Std)
		for j := 0; eq && j < len(w.Y); j++ {
			eq = math.Float64bits(got.Y[j]) == math.Float64bits(w.Y[j])
		}
		for j := 0; eq && j < len(w.Std); j++ {
			eq = math.Float64bits(got.Std[j]) == math.Float64bits(w.Std[j])
		}
		if !eq && !flipped[i] {
			flipped[i] = true
			t.Errorf("row %d, %s: %v y %v std %v (err %v); first asked alone: %v y %v std %v",
				i, what, got.Src, got.Y, got.Std, got.Err, w.Src, w.Y, w.Std)
		}
	}
	for k := 1; k < 20; k++ {
		for i := 0; i < xs.Rows; i++ {
			y, src, sd, err := w.Query(xs.Row(i))
			same(fmt.Sprintf("alone, call %d", k+1), i, BatchResult{Y: y, Src: src, Std: sd, Err: err})
		}
	}
	for _, n := range []int{64, 130} {
		batch := tensor.NewMatrix(n, 2)
		for s := 0; s < xs.Rows; s++ {
			for k := 0; k < n; k++ {
				copy(batch.Row(k), xs.Row((s+k)%xs.Rows))
			}
			res, err := w.QueryBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			for k, r := range res {
				same(fmt.Sprintf("position %d of a %d-row batch", k, n), (s+k)%xs.Rows, r)
			}
		}
	}
	if len(flipped) > 0 {
		t.Fatalf("%d of %d rows answered differently", len(flipped), xs.Rows)
	}
}
