package core

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/raceflag"
	"repro/internal/surrogatetest"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// genSur is a deterministic published-generation stub: both outputs carry
// the generation it was built with, so a reader can detect a torn swap as
// a mismatch between the two.
func genSur(gen float64) *surrogatetest.Rows {
	return &surrogatetest.Rows{Row: func([]float64) ([]float64, []float64) {
		return []float64{gen, gen}, nil
	}}
}

// gatedSur wraps a stub so that it blocks inside Train until released,
// signalling entry — the deterministic stand-in for a slow refit.
type gatedSur struct {
	*surrogatetest.Rows
	started chan struct{}
	release chan struct{}
}

func gate(inner *surrogatetest.Rows) *gatedSur {
	g := &gatedSur{Rows: inner, started: make(chan struct{}), release: make(chan struct{})}
	fit := inner.Fit
	inner.Fit = func(x, y *tensor.Matrix) error {
		close(g.started)
		<-g.release
		if fit != nil {
			return fit(x, y)
		}
		return nil
	}
	return g
}

func twoOutOracle() OracleFunc {
	return OracleFunc{In: 2, Out: 2, F: func(x []float64) ([]float64, error) {
		return []float64{x[0], x[0]}, nil
	}}
}

// TestShardedServesDuringRefit is the stall-free contract, proven without
// timing assumptions: while a shard's refit is blocked inside Train,
// queries keep being answered by the previously published model, and the
// new model takes over only after the refit completes.
func TestShardedServesDuringRefit(t *testing.T) {
	gated := gate(genSur(1))
	var calls atomic.Int64
	factory := func() Surrogate {
		if calls.Add(1) == 1 {
			return genSur(0)
		}
		return gated
	}
	w := NewShardedWrapper(twoOutOracle(), factory, ShardedConfig{
		Shards: 1, UQThreshold: 1, MinTrainSamples: 1,
	})
	seed := tensor.FromRows([][]float64{{0.5, 0.5}})
	seedY := tensor.FromRows([][]float64{{0.5, 0.5}})
	if err := w.Ingest(seed, seedY); err != nil {
		t.Fatal(err)
	}
	if err := w.TrainAll(); err != nil {
		t.Fatal(err)
	}

	w.Refit() // background refit, blocked inside gated.Train
	<-gated.started
	for i := 0; i < 25; i++ {
		y, src, _, err := w.Query([]float64{0.1, 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if src != FromSurrogate || y[0] != 0 || y[1] != 0 {
			t.Fatalf("query during refit got src=%v y=%v; want old generation 0", src, y)
		}
	}
	close(gated.release)
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	y, src, _, err := w.Query([]float64{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if src != FromSurrogate || y[0] != 1 {
		t.Fatalf("query after refit got src=%v y=%v; want new generation 1", src, y)
	}
}

// TestTrainAllWinsOverStaleRefit pins the generation-ordered publish: a
// background refit that snapshotted before a TrainAll but finishes after
// it must be discarded, not overwrite the newer model.
func TestTrainAllWinsOverStaleRefit(t *testing.T) {
	gated := gate(genSur(1))
	var calls atomic.Int64
	factory := func() Surrogate {
		if calls.Add(1) == 1 {
			return gated
		}
		return genSur(2)
	}
	w := NewShardedWrapper(twoOutOracle(), factory, ShardedConfig{
		Shards: 1, UQThreshold: 1, MinTrainSamples: 1,
	})
	if err := w.Ingest(
		tensor.FromRows([][]float64{{0, 0}}),
		tensor.FromRows([][]float64{{0, 0}}),
	); err != nil {
		t.Fatal(err)
	}
	w.Refit() // snapshot generation 0, blocked inside gated.Train
	<-gated.started
	if err := w.TrainAll(); err != nil { // snapshot generation 1, publishes gen 2
		t.Fatal(err)
	}
	close(gated.release) // stale refit completes; its publish must lose
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	y, src, _, err := w.Query([]float64{0.1, 0.1})
	if err != nil || src != FromSurrogate {
		t.Fatalf("query failed: %v %v", src, err)
	}
	if y[0] != 2 {
		t.Fatalf("stale refit overwrote newer model: serving generation %g want 2", y[0])
	}
}

// TestShardedSwapNeverTorn hammers lookups from many goroutines while a
// publisher swaps generations, asserting every reader observes a complete
// model: both outputs agree, and the generations seen are nondecreasing
// (single atomic pointer per shard). Run with -race.
func TestShardedSwapNeverTorn(t *testing.T) {
	var gen atomic.Int64
	factory := func() Surrogate {
		return genSur(float64(gen.Add(1)))
	}
	w := NewShardedWrapper(twoOutOracle(), factory, ShardedConfig{
		Shards: 1, UQThreshold: 1, MinTrainSamples: 1,
	})
	if err := w.Ingest(
		tensor.FromRows([][]float64{{0, 0}}),
		tensor.FromRows([][]float64{{0, 0}}),
	); err != nil {
		t.Fatal(err)
	}
	if err := w.TrainAll(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				y, src, _, err := w.Query([]float64{0.3, 0.7})
				if err != nil || src != FromSurrogate {
					t.Errorf("lookup failed mid-swap: src=%v err=%v", src, err)
					return
				}
				if y[0] != y[1] {
					t.Errorf("torn surrogate state observed: %v", y)
					return
				}
				if y[0] < last {
					t.Errorf("generation went backwards: %g after %g", y[0], last)
					return
				}
				last = y[0]
			}
		}()
	}
	for i := 0; i < 40; i++ {
		w.Refit()
		if err := w.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRouters pins the routing contracts: determinism across instances,
// full-range coverage for the hash router, and kd-bucket boundaries.
func TestRouters(t *testing.T) {
	rng := xrand.New(77)
	h1 := HashRouter{Shards: 8}
	h2 := HashRouter{Shards: 8}
	hits := make([]int, 8)
	for i := 0; i < 512; i++ {
		x := []float64{rng.Range(-5, 5), rng.Range(-5, 5), rng.Range(-5, 5)}
		s := h1.Route(x)
		if s != h2.Route(x) {
			t.Fatal("hash routing differs across router instances")
		}
		if s < 0 || s >= 8 {
			t.Fatalf("hash route %d out of range", s)
		}
		hits[s]++
	}
	for s, n := range hits {
		if n == 0 {
			t.Fatalf("hash router never used shard %d over 512 points", s)
		}
	}
	// Quantized hashing co-locates near-identical points.
	q := HashRouter{Shards: 16, Quantum: 0.5}
	if q.Route([]float64{1.01, 2.02}) != q.Route([]float64{1.24, 2.24}) {
		t.Fatal("quantized hash split points inside one cell")
	}

	kd := KDRouter{Dim: 1, Cuts: []float64{-1, 0, 1}}
	if kd.NumShards() != 4 {
		t.Fatalf("kd shards %d want 4", kd.NumShards())
	}
	cases := map[float64]int{-5: 0, -1: 1, -0.5: 1, 0: 2, 0.99: 2, 1: 3, 7: 3}
	for v, want := range cases {
		if got := kd.Route([]float64{0, v}); got != want {
			t.Fatalf("kd route(%g) = %d want %d", v, got, want)
		}
	}
}

// TestShardedRoutingDeterministicForSeed checks the serving pipeline is
// reproducible: two identically seeded wrappers route identically and,
// after identical training, predict identically.
func TestShardedRoutingDeterministicForSeed(t *testing.T) {
	build := func() *ShardedWrapper {
		rng := xrand.New(1234)
		factory := NewNNSurrogateFactory(2, 1, []int{8}, 0.1, rng, func(s *NNSurrogate) {
			s.Epochs = 40
			s.MCPasses = 5
		})
		return NewShardedWrapper(OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
			return []float64{x[0] + x[1]}, nil
		}}, factory, ShardedConfig{Shards: 3, UQThreshold: 10, MinTrainSamples: 5})
	}
	a, b := build(), build()
	rng := xrand.New(55)
	xs := tensor.NewMatrix(60, 2)
	ys := tensor.NewMatrix(60, 1)
	for i := 0; i < 60; i++ {
		xs.Set(i, 0, rng.Range(-1, 1))
		xs.Set(i, 1, rng.Range(-1, 1))
		ys.Set(i, 0, xs.At(i, 0)+xs.At(i, 1))
	}
	for i := 0; i < xs.Rows; i++ {
		if a.Route(xs.Row(i)) != b.Route(xs.Row(i)) {
			t.Fatal("routing differs between identically configured wrappers")
		}
	}
	if err := a.Ingest(xs, ys); err != nil {
		t.Fatal(err)
	}
	if err := b.Ingest(xs, ys); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.ShardSizes(), b.ShardSizes()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("shard sizes diverge: %v vs %v", sa, sb)
		}
	}
	if err := a.TrainAll(); err != nil {
		t.Fatal(err)
	}
	if err := b.TrainAll(); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.25, -0.4}
	ya, srcA, _, err := a.Query(probe)
	if err != nil {
		t.Fatal(err)
	}
	yb, srcB, _, err := b.Query(probe)
	if err != nil {
		t.Fatal(err)
	}
	if srcA != srcB || ya[0] != yb[0] {
		t.Fatalf("identically seeded wrappers disagree: %v/%v vs %v/%v", ya, srcA, yb, srcB)
	}
}

// TestShardedQueryBatchSemantics pins what only a partitioned batch can
// show: one QueryBatch spanning a published shard and a cold one serves
// the first from its surrogate and simulates the second, and every
// simulated row lands in the training set of the shard it routes to.
func TestShardedQueryBatchSemantics(t *testing.T) {
	oracle := &atomicOracle{}
	w := NewShardedWrapper(oracle, func() Surrogate { return gateStub() }, ShardedConfig{
		Router: KDRouter{Dim: 1, Cuts: []float64{0}}, UQThreshold: 0.5, MinTrainSamples: 1, OracleWorkers: 4,
	})
	// Only the x1 < 0 shard gets data and a model.
	if err := w.Ingest(tensor.FromRows([][]float64{{0, -1}}), tensor.FromRows([][]float64{{1}})); err != nil {
		t.Fatal(err)
	}
	if err := w.TrainAll(); err != nil {
		t.Fatal(err)
	}
	batch := tensor.FromRows([][]float64{
		{1, -0.5}, {90, -0.5}, {1, 0.5}, {-1, -2}, {90, 0.5}, {0.5, 3},
	})
	wantSrc := []Source{FromSurrogate, FromSimulation, FromSimulation, FromSurrogate, FromSimulation, FromSimulation}
	res, err := w.QueryBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || r.Src != wantSrc[i] {
			t.Fatalf("row %d served from %v (err %v), want %v", i, r.Src, r.Err, wantSrc[i])
		}
	}
	if got := oracle.calls.Load(); got != 4 {
		t.Fatalf("oracle ran %d times want 4", got)
	}
	if sizes := w.ShardSizes(); sizes[0] != 1+1 || sizes[1] != 3 {
		t.Fatalf("shard sizes %v: want the published shard to keep its 1 rejected row and the cold shard its 3", sizes)
	}
	// Only the cold shard's rows never reached a surrogate.
	if led := w.Ledger(); led.NLookup != 2 || led.NRejected != 1 || led.NTrain != 4 {
		t.Fatalf("ledger accounting wrong: %+v", led)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
}

// barrierOracle refuses to let any Run return until `need` calls are in
// flight simultaneously — a deterministic witness of real fan-out.
type barrierOracle struct {
	need    int64
	cur     atomic.Int64
	release chan struct{}
	once    sync.Once
}

func (o *barrierOracle) Dims() (int, int) { return 2, 1 }

func (o *barrierOracle) Run(x []float64) ([]float64, error) {
	if o.cur.Add(1) >= o.need {
		o.once.Do(func() { close(o.release) })
	}
	select {
	case <-o.release:
		return []float64{x[0]}, nil
	case <-time.After(10 * time.Second):
		return nil, errors.New("fan-out never reached target concurrency")
	}
}

// TestShardedEndToEnd exercises the full NN pipeline under concurrency:
// pretraining through the fan-out pool, concurrent Query/QueryBatch with
// background refits, and clean Wait. Run with -race.
func TestShardedEndToEnd(t *testing.T) {
	rng := xrand.New(404)
	oracle := &atomicOracle{}
	factory := NewNNSurrogateFactory(2, 1, []int{24}, 0.1, rng, func(s *NNSurrogate) {
		s.Epochs = 80
		s.MCPasses = 8
	})
	w := NewShardedWrapper(oracle, factory, ShardedConfig{
		Shards: 2, UQThreshold: 0.5, MinTrainSamples: 10,
		RetrainEvery: 25, OracleWorkers: 4,
	})
	design := tensor.NewMatrix(120, 2)
	for i := 0; i < 120; i++ {
		design.Set(i, 0, rng.Range(-2, 2))
		design.Set(i, 1, rng.Range(-1, 1))
	}
	if err := w.Pretrain(design); err != nil {
		t.Fatal(err)
	}
	if w.TrainingSetSize() != 120 {
		t.Fatalf("pretrain stored %d samples want 120", w.TrainingSetSize())
	}

	var surrogateHits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			grng := xrand.New(seed)
			for it := 0; it < 20; it++ {
				if it%3 == 0 {
					batch := tensor.NewMatrix(8, 2)
					for i := 0; i < batch.Rows; i++ {
						scale := 1.0
						if grng.Float64() < 0.15 {
							scale = 50 // force fallbacks and background refits
						}
						batch.Set(i, 0, scale*grng.Range(-2, 2))
						batch.Set(i, 1, scale*grng.Range(-1, 1))
					}
					res, err := w.QueryBatch(batch)
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
				} else {
					x := []float64{grng.Range(-2, 2), grng.Range(-1, 1)}
					y, src, _, err := w.Query(x)
					if err != nil || len(y) != 1 {
						t.Errorf("query failed: %v %v", y, err)
						return
					}
					if src == FromSurrogate {
						surrogateHits.Add(1)
					}
				}
			}
		}(uint64(700 + g))
	}
	wg.Wait()
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if surrogateHits.Load() == 0 {
		t.Fatal("no queries served by surrogates under concurrency")
	}
	led := w.Ledger()
	if led.NLookup != int(surrogateHits.Load()) {
		t.Fatalf("ledger lookups %d != observed surrogate answers %d", led.NLookup, surrogateHits.Load())
	}
	if got := w.TrainingSetSize(); got != led.NTrain {
		t.Fatalf("training set size %d != ledger simulations %d", got, led.NTrain)
	}
}

// TestShardedRefitFailureKeepsServing checks a failing background refit
// surfaces through Wait while the previous model keeps serving.
func TestShardedRefitFailureKeepsServing(t *testing.T) {
	var calls atomic.Int64
	trainErr := errors.New("synthetic divergence")
	factory := func() Surrogate {
		if calls.Add(1) == 1 {
			return genSur(7)
		}
		return failSur(trainErr)
	}
	w := NewShardedWrapper(twoOutOracle(), factory, ShardedConfig{
		Shards: 1, UQThreshold: 1, MinTrainSamples: 1,
	})
	if err := w.Ingest(
		tensor.FromRows([][]float64{{0, 0}}),
		tensor.FromRows([][]float64{{0, 0}}),
	); err != nil {
		t.Fatal(err)
	}
	if err := w.TrainAll(); err != nil {
		t.Fatal(err)
	}
	w.Refit()
	if err := w.Wait(); !errors.Is(err, trainErr) {
		t.Fatalf("Wait returned %v want %v", err, trainErr)
	}
	if err := w.Wait(); err != nil {
		t.Fatalf("second Wait should have cleared the error, got %v", err)
	}
	y, src, _, err := w.Query([]float64{0.1, 0.1})
	if err != nil || src != FromSurrogate || y[0] != 7 {
		t.Fatalf("failed refit disturbed serving: %v %v %v", y, src, err)
	}
}

// gateGenSur carries a generation and rejects |x0| > 2, so tests can
// steer rows between the surrogate and the oracle deterministically.
func gateGenSur(gen float64) *surrogatetest.Rows {
	return &surrogatetest.Rows{Row: func(x []float64) ([]float64, []float64) {
		sd := 0.0
		if math.Abs(x[0]) > 2 {
			sd = 1
		}
		return []float64{gen, gen}, []float64{sd, sd}
	}}
}

// TestShardedFailedRefitKeepsRetrainCredit locks in the failure-path
// accounting: a refit that errors gives back the RetrainEvery credit its
// snapshot absorbed, so the very next sample retries instead of waiting
// for a whole fresh window.
func TestShardedFailedRefitKeepsRetrainCredit(t *testing.T) {
	trainErr := errors.New("synthetic divergence")
	var calls atomic.Int64
	factory := func() Surrogate {
		switch calls.Add(1) {
		case 1:
			return gateGenSur(1)
		case 2:
			return failSur(trainErr)
		default:
			return gateGenSur(2)
		}
	}
	w := NewShardedWrapper(twoOutOracle(), factory, ShardedConfig{
		Shards: 1, UQThreshold: 0.5, MinTrainSamples: 1, RetrainEvery: 2,
	})
	// First oracle query trips the first fit (generation 1).
	if _, _, _, err := w.Query([]float64{10, 0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	// Two more rejected queries reach RetrainEvery and spawn the failing
	// refit; its credit must be restored.
	for i := 0; i < 2; i++ {
		if _, _, _, err := w.Query([]float64{10, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Wait(); !errors.Is(err, trainErr) {
		t.Fatalf("Wait returned %v want %v", err, trainErr)
	}
	// With the credit restored, a single further sample must retry the
	// refit (which now succeeds and publishes generation 2).
	if _, _, _, err := w.Query([]float64{10, 0}); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	y, src, _, err := w.Query([]float64{1, 0})
	if err != nil || src != FromSurrogate {
		t.Fatalf("in-gate query failed: %v %v", src, err)
	}
	if y[0] != 2 {
		t.Fatalf("served generation %g want 2 (failed refit must retry on next sample)", y[0])
	}
}

// TestPretrainAbortsEarlyKeepsSuccesses pins the pretrain fan-out cost
// profile: a deterministic failure stops the campaign instead of burning
// the remaining (expensive) runs, while samples already computed are kept
// ("no run is wasted").
func TestPretrainAbortsEarlyKeepsSuccesses(t *testing.T) {
	var calls atomic.Int64
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		if calls.Add(1) == 3 {
			return nil, errors.New("rig crashed")
		}
		return []float64{x[0]}, nil
	}}
	forShards(t, func(t *testing.T, shards int) {
		calls.Store(0)
		w := NewShardedWrapper(oracle, func() Surrogate { return meanSur() }, ShardedConfig{
			Shards: shards, UQThreshold: 1, OracleWorkers: 1,
		})
		err := w.Pretrain(uniformRows(xrand.New(33), 10, 1, 1))
		if err == nil {
			t.Fatal("pretrain swallowed the oracle failure")
		}
		// One worker: exactly 3 runs happened — the failure aborted the
		// other 7.
		if got := calls.Load(); got != 3 {
			t.Fatalf("oracle ran %d times want 3 (early abort)", got)
		}
		if got := w.TrainingSetSize(); got != 2 {
			t.Fatalf("kept %d successful samples want 2", got)
		}
		for si, st := range w.Status() {
			if st.Generation >= 0 {
				t.Fatalf("aborted campaign still trained shard %d", si)
			}
		}
	})

	// Fanned out, with the failing row claimed by the calling goroutine:
	// the oracle fails on the goroutine that called Pretrain (the only one
	// with Pretrain's frame on its stack) and holds every other run until
	// then, so the caller must claim a row. Its failure must come back as
	// the error, be charged once, and keep what the other workers ran.
	// (How many rows those start before they see the abort is a race.)
	var runs atomic.Int64
	failed := make(chan struct{})
	sw := NewShardedWrapper(OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		runs.Add(1)
		var stack [4096]byte
		if bytes.Contains(stack[:runtime.Stack(stack[:], false)], []byte("ShardedWrapper).Pretrain(")) {
			close(failed)
			return nil, errors.New("rig crashed")
		}
		<-failed
		return []float64{x[0]}, nil
	}}, func() Surrogate { return meanSur() }, ShardedConfig{Shards: 2, OracleWorkers: 3})
	if err := sw.Pretrain(tensor.NewMatrix(1000, 2)); err == nil {
		t.Fatal("sharded pretrain swallowed the caller's oracle failure")
	}
	led := sw.Ledger()
	if led.NFailed != 1 || led.NTrain != int(runs.Load())-1 {
		t.Fatalf("ledger charged %d failed + %d ok for %d runs, one of them failed", led.NFailed, led.NTrain, runs.Load())
	}
	if got := sw.TrainingSetSize(); got != led.NTrain {
		t.Fatalf("kept %d samples of %d successful runs", got, led.NTrain)
	}
}

// TestFanoutChargesLedgerOncePerRow pins the ledger totals of both oracle
// fan-outs, which charge once per fan-out rather than once per row: every
// successful run counts into NTrain/SimTime and every failed one into
// NFailed/FailedTime, each with at least the time the oracle itself saw.
func TestFanoutChargesLedgerOncePerRow(t *testing.T) {
	var okTime, failTime atomic.Int64
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		t0 := time.Now()
		for time.Since(t0) < 20*time.Microsecond {
		}
		if x[0] < 0 {
			failTime.Add(int64(time.Since(t0)))
			return nil, errors.New("diverged")
		}
		okTime.Add(int64(time.Since(t0)))
		return []float64{x[0] + x[1]}, nil
	}}
	check := func(when string, led Ledger, ok, failed int) {
		t.Helper()
		if led.NTrain != ok || led.NFailed != failed {
			t.Fatalf("%s: ledger has %d ok + %d failed runs, want %d + %d", when, led.NTrain, led.NFailed, ok, failed)
		}
		if led.SimTime < time.Duration(okTime.Load()) || led.FailedTime < time.Duration(failTime.Load()) {
			t.Fatalf("%s: ledger charged %v ok / %v failed, the oracle alone took %v / %v",
				when, led.SimTime, led.FailedTime, time.Duration(okTime.Load()), time.Duration(failTime.Load()))
		}
		if (ok == 0) != (led.SimTime == 0) || (failed == 0) != (led.FailedTime == 0) {
			t.Fatalf("%s: time charged to the wrong side: %v ok, %v failed", when, led.SimTime, led.FailedTime)
		}
	}
	for _, workers := range []int{1, 4} {
		fresh := func() *ShardedWrapper {
			okTime.Store(0)
			failTime.Store(0)
			return NewShardedWrapper(oracle, func() Surrogate { return meanSur() },
				ShardedConfig{Shards: 2, MinTrainSamples: 1 << 30, OracleWorkers: workers})
		}
		w := fresh()
		design := tensor.NewMatrix(300, 2)
		design.Fill(0.5)
		if err := w.Pretrain(design); err != nil {
			t.Fatal(err)
		}
		check("pretrain", w.Ledger(), 300, 0)
		// No shard of a fresh wrapper serves, so every row of the batch
		// reaches the query-path fan-out; a third of them fail.
		w = fresh()
		batch := tensor.NewMatrix(90, 2)
		for i := 0; i < batch.Rows; i++ {
			batch.Row(i)[0] = float64(i%3) - 1 // -1, 0, 1
		}
		res, err := w.QueryBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if (r.Err != nil) != (batch.Row(i)[0] < 0) {
				t.Fatalf("row %d: err %v", i, r.Err)
			}
		}
		check("query batch", w.Ledger(), 60, 30)
	}
}

// failSur always fails to train.
func failSur(err error) *surrogatetest.Rows {
	return &surrogatetest.Rows{Fit: func(x, y *tensor.Matrix) error { return err }}
}

// meanSur is a deterministic surrogate that learns the column means of
// its training targets and predicts them with zero claimed uncertainty —
// a fixed model whose residual against shifted data is exactly the shift.
func meanSur() *surrogatetest.Rows { return surrogatetest.Mean(0) }

// TestShardedDriftTriggeredRefit pins the adaptive-retrain contract:
// ingesting data the published model still explains leaves the shard
// clean, a residual shift past DriftFactor × the post-publish baseline
// marks it drifted (visible in Status), RefitStale retrains it even
// though RetrainEvery is disabled, and the publish clears the drift
// state. A second drift burst then proves the query path's own refit
// trigger honours the drift flag too.
func TestShardedDriftTriggeredRefit(t *testing.T) {
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{-3}, nil
	}}
	w := NewShardedWrapper(oracle, func() Surrogate { return meanSur() }, ShardedConfig{
		Router:          HashRouter{Shards: 1},
		MinTrainSamples: 4,
		RetrainEvery:    0,  // drift is the only retrain trigger
		UQThreshold:     -1, // every query falls back to the oracle
		DriftFactor:     2,
	})

	ingest := func(n int, y func(i int) float64) {
		xs := tensor.NewMatrix(n, 2)
		ys := tensor.NewMatrix(n, 1)
		for i := 0; i < n; i++ {
			xs.Set(i, 0, float64(i))
			ys.Set(i, 0, y(i))
		}
		if err := w.Ingest(xs, ys); err != nil {
			t.Fatal(err)
		}
	}

	// Seed and publish the first model (mean ≈ 1).
	ingest(8, func(i int) float64 { return 1 + 0.01*math.Sin(float64(i)) })
	if err := w.TrainAll(); err != nil {
		t.Fatal(err)
	}
	gen0 := w.Status()[0].Generation
	if gen0 < 0 {
		t.Fatal("first model never published")
	}

	// Consistent data: warms the baseline, no drift.
	ingest(24, func(i int) float64 { return 1 + 0.01*math.Sin(float64(i)) })
	if st := w.Status()[0]; st.Drifted {
		t.Fatalf("consistent ingest marked the shard drifted: %+v", st)
	}

	// Shifted data: residual jumps from ~0.006 to ~4.
	ingest(24, func(int) float64 { return 5 })
	st := w.Status()[0]
	if !st.Drifted {
		t.Fatalf("shifted ingest did not mark the shard drifted: %+v", st)
	}
	if st.DriftRatio <= 2 {
		t.Fatalf("drift ratio %.2f, want > DriftFactor 2", st.DriftRatio)
	}

	// RefitStale picks the drifted shard up and the publish clears it.
	if spawned := w.RefitStale(); spawned != 1 {
		t.Fatalf("RefitStale spawned %d refits, want 1", spawned)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	st = w.Status()[0]
	if st.Drifted || st.Generation <= gen0 {
		t.Fatalf("refit did not clear drift / advance generation: %+v", st)
	}

	// Second drift burst, drained through the query path this time: with
	// RetrainEvery disabled, only the drift flag can make the fallback
	// sample's refit check fire.
	ingest(24, func(int) float64 { return -3 })
	if st := w.Status()[0]; !st.Drifted {
		t.Fatalf("second shift did not re-mark drift: %+v", st)
	}
	gen1 := st.Generation
	if _, src, _, err := w.Query([]float64{0.5, 0.5}); err != nil || src != FromSimulation {
		t.Fatalf("query = (%v, %v), want an oracle fallback", src, err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	st = w.Status()[0]
	if st.Drifted || st.Generation <= gen1 {
		t.Fatalf("query-path drift refit never ran: %+v", st)
	}
}

// TestDriftRaisedMidRefitSurvivesPublish pins the snapshot-coverage
// contract of the drift flag: drift tripped by samples ingested AFTER a
// refit's snapshot was taken must survive that refit's publish (the new
// model never saw those samples) and chain a follow-up refit that does.
func TestDriftRaisedMidRefitSurvivesPublish(t *testing.T) {
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{0}, nil
	}}
	gated := gate(meanSur()) // a slow drift refit
	fits := 0
	w := NewShardedWrapper(oracle, func() Surrogate {
		fits++
		if fits == 2 {
			return gated // the drift-triggered refit, held in flight
		}
		return meanSur()
	}, ShardedConfig{
		Router:          HashRouter{Shards: 1},
		MinTrainSamples: 4,
		RetrainEvery:    0,
		DriftFactor:     2,
	})

	ingest := func(n int, v float64) {
		xs := tensor.NewMatrix(n, 2)
		ys := tensor.NewMatrix(n, 1)
		for i := 0; i < n; i++ {
			xs.Set(i, 0, float64(i))
			ys.Set(i, 0, v+0.01*math.Sin(float64(i)))
		}
		if err := w.Ingest(xs, ys); err != nil {
			t.Fatal(err)
		}
	}

	ingest(8, 1)
	if err := w.TrainAll(); err != nil { // fit #1: publishes mean≈1
		t.Fatal(err)
	}
	ingest(16, 5) // regime shift: trips drift against model #1
	if !w.Status()[0].Drifted {
		t.Fatal("first shift did not trip drift")
	}
	if spawned := w.RefitStale(); spawned != 1 { // fit #2: gated
		t.Fatalf("RefitStale spawned %d, want 1", spawned)
	}
	<-gated.started
	// While fit #2 trains on its snapshot, a second regime shift arrives:
	// these samples are in no snapshot, and must re-trip drift.
	ingest(16, -4)
	if !w.Status()[0].Drifted {
		t.Fatal("mid-refit shift did not trip drift")
	}
	close(gated.release)
	if err := w.Wait(); err != nil { // drains fit #2 AND the chained fit #3
		t.Fatal(err)
	}
	st := w.Status()[0]
	if st.Drifted {
		t.Fatalf("drift flag not cleared after a covering refit: %+v", st)
	}
	if st.Generation < 2 {
		t.Fatalf("generation %d: the publish of the stale snapshot swallowed the drift flag instead of chaining a follow-up refit", st.Generation)
	}
	if fits < 3 {
		t.Fatalf("%d fits ran; the mid-refit drift never chained its own refit", fits)
	}
}

// constSur predicts 0 everywhere, row by row.
func constSur() *surrogatetest.Rows {
	return &surrogatetest.Rows{Row: func([]float64) ([]float64, []float64) { return []float64{0}, nil }}
}

// TestDriftResidualFallbackPath checks drift tracking against a surrogate
// that answers row by row behind the batch method (there is no separate
// per-row residual path any more): the shift trips the flag just the same.
func TestDriftResidualFallbackPath(t *testing.T) {
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{0}, nil
	}}
	w := NewShardedWrapper(oracle, func() Surrogate { return constSur() }, ShardedConfig{
		Router:          HashRouter{Shards: 1},
		MinTrainSamples: 2,
		DriftFactor:     2,
	})
	seed := tensor.NewMatrix(4, 2)
	seedY := tensor.NewMatrix(4, 1)
	seedY.Fill(1) // constSur predicts 0 → in-sample baseline 1
	if err := w.Ingest(seed, seedY); err != nil {
		t.Fatal(err)
	}
	if err := w.TrainAll(); err != nil {
		t.Fatal(err)
	}
	shifted := tensor.NewMatrix(16, 2)
	shiftedY := tensor.NewMatrix(16, 1)
	shiftedY.Fill(5) // residual 5 > 2 × baseline 1
	if err := w.Ingest(shifted, shiftedY); err != nil {
		t.Fatal(err)
	}
	if st := w.Status()[0]; !st.Drifted || st.DriftRatio <= 2 {
		t.Fatalf("per-row fallback never tripped drift: %+v", st)
	}
}

// TestShardedQueryBatchIntoReusesBuffers drives the sharded wrapper's
// buffer-reusing batch path across chunk-splitting widths and checks the
// answers stay consistent with the direct QueryBatch results.
func TestShardedQueryBatchIntoReusesBuffers(t *testing.T) {
	w := pretrainedWrapper(t, &atomicOracle{}, 2, 0xbb18, 0, ShardedConfig{UQThreshold: 100},
		func(s *NNSurrogate) { s.MaxBatch = 4 }) // far narrower than the batches served
	batch := uniformRows(xrand.New(0xbb19), 30, 1, 1)
	want, err := w.QueryBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]BatchResult, batch.Rows)
	for trial := 0; trial < 3; trial++ { // reuse res across calls
		if err := w.QueryBatchInto(batch, res); err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if res[i].Src != FromSurrogate {
				t.Fatalf("trial %d row %d not surrogate-served", trial, i)
			}
			if math.Abs(res[i].Y[0]-want[i].Y[0]) > 1e-12 {
				t.Fatalf("trial %d row %d: Into %g vs QueryBatch %g", trial, i, res[i].Y[0], want[i].Y[0])
			}
		}
	}
}

// TestFallbackFeedsShardWithoutStaging: oracle answers reach the shard
// windows straight from the caller's results. With every row rejected by
// the gate, full windows and an oracle answering from one shared slice, a
// warmed QueryBatchInto allocates as often at 8 rows as at 64; staging the
// samples per shard per call used to grow with the batch.
func TestFallbackFeedsShardWithoutStaging(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items under -race; alloc counts through pooled paths are meaningless")
	}
	y := []float64{0.5}
	w := NewShardedWrapper(OracleFunc{In: 2, Out: 1, F: func([]float64) ([]float64, error) { return y, nil }},
		func() Surrogate { return meanSur() }, ShardedConfig{
			Shards: 2, MinTrainSamples: 1, UQThreshold: -1, OracleWorkers: 1,
			Retention: Retention{Policy: RetainWindow, MaxSamples: 16},
		})
	if err := w.Pretrain(uniformRows(xrand.New(0xfa11), 256, 1, 1)); err != nil {
		t.Fatal(err)
	}
	allocs := func(rows int) float64 {
		batch := uniformRows(xrand.New(uint64(rows)), rows, 1, 1)
		res := make([]BatchResult, rows)
		query := func() {
			if err := w.QueryBatchInto(batch, res); err != nil {
				t.Fatal(err)
			}
		}
		query()
		for i, r := range res {
			if r.Src != FromSimulation || r.Err != nil {
				t.Fatalf("row %d: %+v, want an oracle answer", i, r)
			}
		}
		return testing.AllocsPerRun(50, query)
	}
	if a8, a64 := allocs(8), allocs(64); a8 != a64 {
		t.Fatalf("an all-miss QueryBatchInto allocates %g times at 8 rows and %g at 64", a8, a64)
	}
}

// TestShardedQuantizedServing checks what the Quantized knob does to the
// factory: every generation a shard publishes — pretrained or refit —
// comes out with its int8 program compiled, so the scalar and batched
// lookup paths keep serving int8 across a refit.
func TestShardedQuantizedServing(t *testing.T) {
	rng := xrand.New(0x54)
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{x[0] - x[1]}, nil
	}}
	factory := NewNNSurrogateFactory(2, 1, []int{12}, 0, rng, func(s *NNSurrogate) {
		s.Epochs = 30
		s.MCPasses = 4
	})
	w := NewShardedWrapper(oracle, factory, ShardedConfig{
		Shards: 2, MinTrainSamples: 10, UQThreshold: 100, Quantized: true,
	})
	if err := w.Pretrain(uniformRows(rng, 64, 1, 1)); err != nil {
		t.Fatal(err)
	}
	batch := uniformRows(rng, 30, 1, 1)
	res := make([]BatchResult, batch.Rows)
	served := uint64(0)
	for gen := 0; gen < 2; gen++ {
		for si, st := range w.Status() {
			if st.Generation != gen {
				t.Fatalf("shard %d serves generation %d, want %d", si, st.Generation, gen)
			}
		}
		for k := 0; k < 8; k++ {
			if _, src, _, err := w.Query(batch.Row(k)); err != nil || src != FromSurrogate {
				t.Fatalf("generation %d query %d: src=%v err=%v", gen, k, src, err)
			}
		}
		if err := w.QueryBatchInto(batch, res); err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if res[i].Src != FromSurrogate {
				t.Fatalf("generation %d batch row %d not surrogate-served", gen, i)
			}
		}
		served += 8 + uint64(batch.Rows)
		if q, fallbacks := w.QuantStats(); q != served || fallbacks != 0 {
			t.Fatalf("generation %d: %d quant queries and %d fallbacks, want %d and 0: factory wrap did not quantize the published generation",
				gen, q, fallbacks, served)
		}
		w.Refit()
		if err := w.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// returnsWithin runs f and fails the test unless it returns within a
// second: a call that blocks is a wedged shard lock. A panic in f is
// reported, and the test carries on to the next call.
func returnsWithin(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	select {
	case pv := <-done:
		if pv != nil {
			t.Errorf("%s panicked: %v", what, pv)
		}
	case <-time.After(time.Second):
		t.Fatalf("%s blocked for 1 s: the shard is wedged", what)
	}
}

// TestOracleWrongLengthIsRowError: an oracle answer that is not the
// length its Dims promises fails that row — on Query, QueryBatch and
// Pretrain — and never becomes a training sample. Appending it used to
// panic with the shard lock held, and from then on Status, every later
// fallback and every refit of the shard blocked forever.
func TestOracleWrongLengthIsRowError(t *testing.T) {
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		if x[0] > 0 {
			return []float64{x[0], x[0]}, nil // one value too many
		}
		return []float64{x[0]}, nil
	}}
	w := NewShardedWrapper(oracle, func() Surrogate { return surrogatetest.Mean(0) }, ShardedConfig{
		Shards: 1, MinTrainSamples: 1 << 30,
	})
	returnsWithin(t, "the bad Query", func() {
		if y, _, _, err := w.Query([]float64{1, 0}); err == nil {
			t.Errorf("wrong-length answer %v served", y)
		}
	})
	returnsWithin(t, "Status", func() { w.Status() })
	returnsWithin(t, "the next Query", func() {
		if y, src, _, err := w.Query([]float64{-1, 0}); err != nil || src != FromSimulation || len(y) != 1 {
			t.Errorf("next query = (%v, %v, %v), want the oracle's answer", y, src, err)
		}
	})
	returnsWithin(t, "QueryBatch", func() {
		res, err := w.QueryBatch(tensor.FromRows([][]float64{{2, 0}, {-2, 0}}))
		if err != nil || res[0].Err == nil || res[1].Err != nil {
			t.Errorf("batch = %+v (err %v), want only the wrong-length row failed", res, err)
		}
	})
	if n, led := w.TrainingSetSize(), w.Ledger(); n != 2 || led.NTrain != 2 || led.NFailed != 2 {
		t.Fatalf("%d samples, ledger %+v: want the 2 good answers kept and the 2 bad ones failed", n, led)
	}
	returnsWithin(t, "Pretrain", func() {
		if err := w.Pretrain(tensor.FromRows([][]float64{{3, 0}})); err == nil {
			t.Error("Pretrain accepted a wrong-length answer")
		}
	})
}

// TestQueryWrongWidthIsError: a query point of the wrong width is the
// caller's error and touches no shard. It used to reach the oracle on a
// cold shard and panic appending the sample with the shard lock held.
func TestQueryWrongWidthIsError(t *testing.T) {
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) { return x[:1], nil }}
	w := NewShardedWrapper(oracle, func() Surrogate { return surrogatetest.Mean(0) }, ShardedConfig{
		Shards: 1, MinTrainSamples: 1 << 30,
	})
	returnsWithin(t, "the wrong-width Query", func() {
		if y, _, _, err := w.Query([]float64{1}); err == nil {
			t.Errorf("1-dim query answered %v by a 2-dim wrapper", y)
		}
	})
	returnsWithin(t, "TrainingSetSize", func() {
		if n := w.TrainingSetSize(); n != 0 {
			t.Errorf("wrong-width query left %d samples", n)
		}
	})
}
