package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestSurrogateCompiledPathMatchesInterpreted checks the surrogate's
// serving path against a twin network fitted here, Train's way, from a twin
// of the surrogate's rng, and evaluated by a program of its own (nn's tests
// hold that program to a layer-by-layer reference). Identical point
// predictions (up to rounding) and consistent UQ behaviour.
func TestSurrogateCompiledPathMatchesInterpreted(t *testing.T) {
	rng := xrand.New(0xc0de)
	x := tensor.NewMatrix(30, 2)
	y := tensor.NewMatrix(30, 1)
	for i := 0; i < x.Rows; i++ {
		a, b := rng.Range(-1, 1), rng.Range(-1, 1)
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y.Set(i, 0, a*b)
	}
	sur := NewNNSurrogate(2, 1, []int{12}, 0.1, xrand.New(0xfeed))
	sur.Epochs = 40
	if err := sur.Train(x, y); err != nil {
		t.Fatal(err)
	}
	if sur.compiled == nil {
		t.Fatal("trained NNSurrogate did not compile its network")
	}
	twin := xrand.New(0xfeed)
	net := nn.NewMLP(twin.Split(), nn.Tanh, sur.Dropout, 2, 12, 1)
	if _, err := net.Fit(sur.xScaler.Transform(x), sur.yScaler.Transform(y), nn.TrainConfig{
		Epochs: sur.Epochs, BatchSize: surrogateBatchSize, Optimizer: nn.NewAdam(surrogateLR), Seed: twin.Uint64(),
	}); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.4, -0.3}
	got := Predict(sur, probe)
	// Independent reference: the twin's own eval-mode program.
	xs := tensor.FromRows([][]float64{sur.xScaler.TransformVec(probe)})
	want := sur.yScaler.Inverse(net.Compile().PredictBatch(xs, nil).Data)
	if math.Abs(got[0]-want[0]) > 1e-12 {
		t.Fatalf("compiled Predict %g vs the twin network %g", got[0], want[0])
	}
	mean, std := PredictWithUQ(sur, probe)
	if len(mean) != 1 || len(std) != 1 {
		t.Fatalf("malformed UQ result %v %v", mean, std)
	}
	if std[0] <= 0 || math.IsNaN(std[0]) {
		t.Fatalf("dropout surrogate UQ std %g, want > 0", std[0])
	}
	if math.Abs(mean[0]-want[0]) > 0.5*math.Abs(want[0])+0.5 {
		t.Fatalf("MC mean %g wildly off the point prediction %g", mean[0], want[0])
	}
}

// TestAutoRefitPublishesAndDrainsStaleness exercises the timer-driven
// periodic retrainer end to end: ingested (never query-triggered) data
// makes shards stale, the driver refits them in the background, the
// staleness counters drain, and the shards come out serving.
func TestAutoRefitPublishesAndDrainsStaleness(t *testing.T) {
	rng := xrand.New(0xaa10)
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{x[0] + x[1]}, nil
	}}
	factory := NewNNSurrogateFactory(2, 1, []int{8}, 0.1, rng, func(s *NNSurrogate) {
		s.Epochs = 20
		s.MCPasses = 5
	})
	// RetrainEvery 0: nothing but the auto-refit driver ever trains.
	w := NewShardedWrapper(oracle, factory, ShardedConfig{
		Shards: 2, MinTrainSamples: 4, UQThreshold: 100,
	})
	xs := tensor.NewMatrix(0, 2)
	ys := tensor.NewMatrix(0, 1)
	for i := 0; i < 24; i++ {
		x := []float64{rng.Range(-1, 1), rng.Range(-1, 1)}
		xs.AppendRow(x)
		ys.AppendRow([]float64{x[0] + x[1]})
	}
	if err := w.Ingest(xs, ys); err != nil {
		t.Fatal(err)
	}
	for i, st := range w.Status() {
		if st.Samples > 0 && st.Stale != st.Samples {
			t.Fatalf("shard %d: %d ingested samples but staleness %d", i, st.Samples, st.Stale)
		}
		if st.Generation != -1 {
			t.Fatalf("shard %d published before any training", i)
		}
	}

	w.StartAutoRefit(2 * time.Millisecond)
	defer w.StopAutoRefit()
	deadline := time.After(10 * time.Second)
	for {
		ready := true
		for _, st := range w.Status() {
			if st.Samples > 0 && (st.Generation < 0 || st.Stale > 0) {
				ready = false
			}
		}
		if ready {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("auto-refit never drained staleness: %+v", w.Status())
		case <-time.After(5 * time.Millisecond):
		}
	}
	w.StopAutoRefit()
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	// The refreshed shards must actually serve.
	if _, src, _, err := w.Query([]float64{0.2, 0.3}); err != nil || src != FromSurrogate {
		t.Fatalf("post-auto-refit query src=%v err=%v, want surrogate", src, err)
	}
	// Stopped driver: new staleness stays put.
	if err := w.Ingest(xs.SliceRows(0, 2), ys.SliceRows(0, 2)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	total := 0
	for _, st := range w.Status() {
		total += st.Stale
	}
	if total != 2 {
		t.Fatalf("stopped auto-refit driver still training: staleness %d, want 2", total)
	}
}

// TestAutoRefitLifecycle pins the driver's start/stop contract: double
// start panics, StopAutoRefit is idempotent and safe without a start.
func TestAutoRefitLifecycle(t *testing.T) {
	rng := xrand.New(0xaa11)
	oracle := OracleFunc{In: 1, Out: 1, F: func(x []float64) ([]float64, error) { return x, nil }}
	factory := NewNNSurrogateFactory(1, 1, []int{4}, 0.1, rng, nil)
	w := NewShardedWrapper(oracle, factory, ShardedConfig{Shards: 1})
	w.StopAutoRefit() // no driver: must not block or panic
	w.StartAutoRefit(time.Hour)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second StartAutoRefit did not panic")
			}
		}()
		w.StartAutoRefit(time.Hour)
	}()
	w.StopAutoRefit()
	w.StopAutoRefit() // idempotent
	// Restart after stop is allowed.
	w.StartAutoRefit(time.Hour)
	w.StopAutoRefit()
}

// TestRefitStaleSkipsFreshShards checks the staleness gate: a shard whose
// published model has absorbed every sample is not retrained.
func TestRefitStaleSkipsFreshShards(t *testing.T) {
	rng := xrand.New(0xaa12)
	oracle := OracleFunc{In: 1, Out: 1, F: func(x []float64) ([]float64, error) { return x, nil }}
	factory := NewNNSurrogateFactory(1, 1, []int{4}, 0.1, rng, func(s *NNSurrogate) {
		s.Epochs = 10
	})
	w := NewShardedWrapper(oracle, factory, ShardedConfig{Shards: 1, MinTrainSamples: 2})
	xs := tensor.NewMatrix(0, 1)
	ys := tensor.NewMatrix(0, 1)
	for i := 0; i < 8; i++ {
		xs.AppendRow([]float64{rng.Range(-1, 1)})
		ys.AppendRow([]float64{rng.Range(-1, 1)})
	}
	if err := w.Ingest(xs, ys); err != nil {
		t.Fatal(err)
	}
	if n := w.RefitStale(); n != 1 {
		t.Fatalf("first RefitStale spawned %d refits, want 1", n)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if n := w.RefitStale(); n != 0 {
		t.Fatalf("fresh shard retrained anyway: %d refits", n)
	}
}

// TestRefitStaleRespectsMinTrainSamples checks the first-fit gate: the
// auto-refit driver must not publish a model for a shard that has not
// yet reached MinTrainSamples, matching the query path's threshold.
func TestRefitStaleRespectsMinTrainSamples(t *testing.T) {
	rng := xrand.New(0xaa13)
	oracle := OracleFunc{In: 1, Out: 1, F: func(x []float64) ([]float64, error) { return x, nil }}
	factory := NewNNSurrogateFactory(1, 1, []int{4}, 0.1, rng, func(s *NNSurrogate) {
		s.Epochs = 10
	})
	w := NewShardedWrapper(oracle, factory, ShardedConfig{Shards: 1, MinTrainSamples: 10})
	xs := tensor.NewMatrix(0, 1)
	ys := tensor.NewMatrix(0, 1)
	for i := 0; i < 9; i++ {
		xs.AppendRow([]float64{rng.Range(-1, 1)})
		ys.AppendRow([]float64{rng.Range(-1, 1)})
	}
	if err := w.Ingest(xs, ys); err != nil {
		t.Fatal(err)
	}
	if n := w.RefitStale(); n != 0 {
		t.Fatalf("RefitStale trained below MinTrainSamples: %d refits on 9/10 samples", n)
	}
	// One more sample reaches the threshold.
	if err := w.Ingest(xs.SliceRows(0, 1), ys.SliceRows(0, 1)); err != nil {
		t.Fatal(err)
	}
	if n := w.RefitStale(); n != 1 {
		t.Fatalf("RefitStale spawned %d refits at the threshold, want 1", n)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := w.Status(); st[0].Generation < 0 {
		t.Fatal("threshold refit never published")
	}
}
