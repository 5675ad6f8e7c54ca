package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/raceflag"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// This file holds the offline campaign, Pretrain, to its contract: it
// streams the design through the shard windows one chunk at a time and
// ends where one Ingest of the whole design followed by TrainAll ends.

// pretrainWorkers keeps 64·OracleWorkers below pretrainChunk, so the
// campaigns here stream in chunks of exactly pretrainChunk rows.
const pretrainWorkers = 2

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPretrainStreamsLikeOneIngest: a chunked campaign leaves every shard
// window, the ledger's counts and every published model bit-identical to
// one Ingest of the whole design's answers followed by TrainAll on a twin
// wrapper — for design sizes on both sides of a chunk boundary and every
// retention policy.
func TestPretrainStreamsLikeOneIngest(t *testing.T) {
	oracle := &atomicOracle{}
	factory := func() Surrogate {
		s := NewNNSurrogate(2, 1, []int{8}, 0, xrand.New(0x57e4))
		s.Epochs = 2
		return s
	}
	probe := uniformRows(xrand.New(0x9b0be), 64, 1, 1)
	for _, ret := range []Retention{{}, {Policy: RetainWindow, MaxSamples: 300}} {
		for _, n := range []int{1, pretrainChunk - 1, pretrainChunk, pretrainChunk + 1, 5*pretrainChunk + 7} {
			t.Run(fmt.Sprintf("%v/rows=%d", ret.Policy, n), func(t *testing.T) {
				cfg := ShardedConfig{Shards: 4, OracleWorkers: pretrainWorkers, Retention: ret}
				design := uniformRows(xrand.New(uint64(n)), n, 1, 1)
				streamed := NewShardedWrapper(oracle, factory, cfg)
				if err := streamed.Pretrain(design); err != nil {
					t.Fatal(err)
				}
				ys := tensor.NewMatrix(n, 1)
				for i := 0; i < n; i++ {
					y, _ := oracle.Run(design.Row(i))
					copy(ys.Row(i), y)
				}
				twin := NewShardedWrapper(oracle, factory, cfg)
				if err := twin.Ingest(design, ys); err != nil {
					t.Fatal(err)
				}
				if err := twin.TrainAll(); err != nil {
					t.Fatal(err)
				}

				for si := range streamed.shards {
					a, b := streamed.shards[si], twin.shards[si]
					if !sameBits(a.xs.Data, b.xs.Data) || !sameBits(a.ys.Data, b.ys.Data) {
						t.Fatalf("shard %d window: %d rows streamed, %d ingested at once, contents differ", si, a.xs.Rows, b.xs.Rows)
					}
					ap, bp := a.active.Load(), b.active.Load()
					if (ap == nil) != (bp == nil) {
						t.Fatalf("shard %d: published %v streamed, %v ingested at once", si, ap != nil, bp != nil)
					}
					if ap == nil {
						continue
					}
					var ma, mb tensor.Matrix
					(*ap).PredictInto(probe, &ma, nil)
					(*bp).PredictInto(probe, &mb, nil)
					if !sameBits(ma.Data, mb.Data) {
						t.Fatalf("shard %d: published models answer differently", si)
					}
				}
				got, want := streamed.Ledger(), twin.Ledger()
				runs := n // every row runs, except the rows a sliding window drops
				if ret.Policy == RetainWindow {
					runs = twin.TrainingSetSize()
				}
				if got.NTrain != runs || got.NFailed != 0 || want.NTrain != 0 ||
					got.NTrainingRuns != want.NTrainingRuns || got.LearnSamples != want.LearnSamples {
					t.Fatalf("ledger streamed %+v, ingested at once %+v (%d design rows)", got, want, n)
				}
			})
		}
	}
}

// TestPretrainAbortStopsLaterChunks: a failure in the second chunk is
// reported by its design row, the successes already computed are kept,
// and no row of a later chunk ever reaches the oracle.
func TestPretrainAbortStopsLaterChunks(t *testing.T) {
	const bad = pretrainChunk + 3
	var runs, late atomic.Int64
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		runs.Add(1)
		switch i := int(x[0]); {
		case i == bad:
			return nil, errors.New("rig crashed")
		case i >= 2*pretrainChunk:
			late.Add(1)
		}
		return []float64{x[1]}, nil
	}}
	design := tensor.NewMatrix(5*pretrainChunk, 2)
	for i := 0; i < design.Rows; i++ {
		design.Set(i, 0, float64(i))
	}
	w := NewShardedWrapper(oracle, func() Surrogate { return meanSur() }, ShardedConfig{
		Shards: 4, OracleWorkers: pretrainWorkers,
	})
	err := w.Pretrain(design)
	if want := fmt.Sprintf("pretrain point %d:", bad); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Pretrain returned %v, want the error of %q", err, want)
	}
	if n := late.Load(); n != 0 {
		t.Fatalf("%d rows of chunks after the failing one ran", n)
	}
	led := w.Ledger()
	if led.NFailed != 1 || int64(led.NTrain) != runs.Load()-1 || led.NTrain < bad {
		t.Fatalf("ledger charged %d ok + %d failed for %d runs; want every run before row %d kept", led.NTrain, led.NFailed, runs.Load(), bad)
	}
	if got := w.TrainingSetSize(); got != led.NTrain {
		t.Fatalf("kept %d samples of %d successful runs", got, led.NTrain)
	}
	for si, st := range w.Status() {
		if st.Generation >= 0 {
			t.Fatalf("aborted campaign still trained shard %d", si)
		}
	}
}

// windowedConfig is the 4-shard RetainWindow wrapper the plan tests run.
var windowedConfig = ShardedConfig{
	Shards: 4, OracleWorkers: pretrainWorkers, Retention: Retention{Policy: RetainWindow, MaxSamples: 300},
}

// indexedDesign returns rows design points whose first coordinate names
// the row: base + its index.
func indexedDesign(rows, base int) *tensor.Matrix {
	rng := xrand.New(uint64(rows))
	m := tensor.NewMatrix(rows, 2)
	for i := 0; i < rows; i++ {
		m.Set(i, 0, float64(base+i))
		m.Set(i, 1, rng.Range(-1, 1))
	}
	return m
}

// indexAnswers is what an indexOracle answers for every row of design.
func indexAnswers(design *tensor.Matrix) *tensor.Matrix {
	ys := tensor.NewMatrix(design.Rows, 1)
	for i := 0; i < design.Rows; i++ {
		ys.Set(i, 0, design.At(i, 1))
	}
	return ys
}

// indexOracle answers x[1], records the name x[0] of every row it runs,
// and fails the row named bad.
type indexOracle struct {
	bad int
	mu  sync.Mutex
	ran []int
}

func (o *indexOracle) Dims() (int, int) { return 2, 1 }

func (o *indexOracle) Run(x []float64) ([]float64, error) {
	o.mu.Lock()
	o.ran = append(o.ran, int(x[0]))
	o.mu.Unlock()
	if int(x[0]) == o.bad {
		return nil, errors.New("rig crashed")
	}
	return []float64{x[1]}, nil
}

// runs returns the names of the rows run so far, ascending.
func (o *indexOracle) runs() []int {
	o.mu.Lock()
	defer o.mu.Unlock()
	ran := slices.Clone(o.ran)
	slices.Sort(ran)
	return ran
}

// windowNames returns the names (first coordinates) of every row w's
// shard windows hold, ascending.
func windowNames(w *ShardedWrapper) []int {
	var names []int
	for _, s := range w.shards {
		s.mu.Lock()
		for i := 0; i < s.xs.Rows; i++ {
			names = append(names, int(s.xs.At(i, 0)))
		}
		s.mu.Unlock()
	}
	slices.Sort(names)
	return names
}

// TestPretrainRunsOnlyKeptRows: under RetainWindow the oracle runs exactly
// the design rows the shard windows hold when the campaign ends.
func TestPretrainRunsOnlyKeptRows(t *testing.T) {
	for _, n := range []int{1, pretrainChunk - 1, pretrainChunk + 1, 5*pretrainChunk + 7} {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) {
			oracle := &indexOracle{bad: -1}
			w := NewShardedWrapper(oracle, func() Surrogate { return meanSur() }, windowedConfig)
			if err := w.Pretrain(indexedDesign(n, 0)); err != nil {
				t.Fatal(err)
			}
			if ran, kept := oracle.runs(), windowNames(w); !slices.Equal(ran, kept) {
				t.Fatalf("the oracle ran %d rows, the windows hold %d; the sets differ", len(ran), len(kept))
			}
		})
	}
}

// TestPretrainOverHeldRows: shards that already hold rows from an earlier
// Ingest end the campaign with windows bit-identical to a twin's that
// ingests those rows, then the whole design's answers — for a design small
// enough that some held rows survive and the window still cuts the oldest
// (a shard's design rows m fewer than its final window r), and one large
// enough that none survive (m ≥ r).
func TestPretrainOverHeldRows(t *testing.T) {
	held := indexedDesign(1400, -1400) // named -1400 … -1
	for _, n := range []int{100, 5*pretrainChunk + 7} {
		t.Run(fmt.Sprintf("rows=%d", n), func(t *testing.T) {
			design := indexedDesign(n, 0)
			oracle := &indexOracle{bad: -1}
			streamed := NewShardedWrapper(oracle, func() Surrogate { return meanSur() }, windowedConfig)
			twin := NewShardedWrapper(oracle, func() Surrogate { return meanSur() }, windowedConfig)
			for _, w := range []*ShardedWrapper{streamed, twin} {
				if err := w.Ingest(held, indexAnswers(held)); err != nil {
					t.Fatal(err)
				}
			}
			before := streamed.TrainingSetSize()
			if err := streamed.Pretrain(design); err != nil {
				t.Fatal(err)
			}
			if err := twin.Ingest(design, indexAnswers(design)); err != nil {
				t.Fatal(err)
			}
			if err := twin.TrainAll(); err != nil {
				t.Fatal(err)
			}
			for si := range streamed.shards {
				a, b := streamed.shards[si], twin.shards[si]
				if !sameBits(a.xs.Data, b.xs.Data) || !sameBits(a.ys.Data, b.ys.Data) {
					t.Fatalf("shard %d window: %d rows streamed, %d ingested at once, contents differ", si, a.xs.Rows, b.xs.Rows)
				}
			}
			names := windowNames(streamed)
			survivors := 0
			for survivors < len(names) && names[survivors] < 0 {
				survivors++
			}
			t.Logf("%d of %d held rows survive, %d of %d design rows ran", survivors, before, len(oracle.runs()), n)
			if (survivors > 0) != (n < pretrainChunk) || survivors == before {
				t.Fatalf("%d of %d held rows survive a %d-row design: the case does not exercise the plan", survivors, before, n)
			}
			if ran := oracle.runs(); !slices.Equal(ran, names[survivors:]) {
				t.Fatalf("the oracle ran %d rows, the windows hold %d design rows; the sets differ", len(ran), len(names)-survivors)
			}
		})
	}
}

// TestPretrainAbortUnderWindow: under RetainWindow a failing row the
// windows would drop is never run, so the campaign succeeds; a failing
// kept row aborts it by its design index, and no kept row of a later
// chunk reaches the oracle.
func TestPretrainAbortUnderWindow(t *testing.T) {
	design := indexedDesign(5*pretrainChunk, 0)
	twin := NewShardedWrapper(&indexOracle{bad: -1}, func() Surrogate { return meanSur() }, windowedConfig)
	if err := twin.Ingest(design, indexAnswers(design)); err != nil {
		t.Fatal(err)
	}
	kept := windowNames(twin)
	if kept[0] == 0 || len(kept) <= pretrainChunk {
		t.Fatalf("the windows keep rows %d… (%d of them): want a dropped first row and more than one chunk", kept[0], len(kept))
	}

	t.Run("dropped", func(t *testing.T) {
		oracle := &indexOracle{bad: kept[0] - 1}
		w := NewShardedWrapper(oracle, func() Surrogate { return meanSur() }, windowedConfig)
		if err := w.Pretrain(design); err != nil {
			t.Fatalf("a failing row the windows drop aborted the campaign: %v", err)
		}
		if ran := oracle.runs(); !slices.Equal(ran, kept) {
			t.Fatalf("the oracle ran %d rows, the windows keep %d", len(ran), len(kept))
		}
		if led := w.Ledger(); led.NFailed != 0 || led.NTrain != len(kept) {
			t.Fatalf("ledger charged %d ok + %d failed, want %d + 0", led.NTrain, led.NFailed, len(kept))
		}
	})

	t.Run("kept", func(t *testing.T) {
		oracle := &indexOracle{bad: kept[0]}
		w := NewShardedWrapper(oracle, func() Surrogate { return meanSur() }, windowedConfig)
		err := w.Pretrain(design)
		if want := fmt.Sprintf("pretrain point %d:", kept[0]); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Pretrain returned %v, want the error of %q", err, want)
		}
		for _, i := range oracle.runs() {
			if _, later := slices.BinarySearch(kept[pretrainChunk:], i); later {
				t.Fatalf("row %d of a kept chunk after the failing one ran", i)
			}
		}
		if led := w.Ledger(); led.NFailed != 1 {
			t.Fatalf("ledger charged %d failed runs, want 1", led.NFailed)
		}
	})
}

// TestPretrainMemoryIsBoundedByChunk: a campaign's allocations do not grow
// with its design. With an oracle answering from one shared slice and a
// 256-row window, a 200 000-row Pretrain allocates under 1 MB more than a
// 50 000-row one; holding every row's result, its staged copy and its
// shard partition until the last row returned cost ~110 B a row, 16 MB of
// difference.
func TestPretrainMemoryIsBoundedByChunk(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow allocations are not the campaign's")
	}
	y := []float64{0.5}
	oracle := OracleFunc{In: 2, Out: 1, F: func([]float64) ([]float64, error) { return y, nil }}
	allocated := func(rows int) uint64 {
		design := uniformRows(xrand.New(7), rows, 1, 1)
		least := uint64(math.MaxUint64)
		for try := 0; try < 2; try++ { // the lesser of two: other goroutines allocate too
			w := NewShardedWrapper(oracle, func() Surrogate { return meanSur() }, ShardedConfig{
				Shards: 4, OracleWorkers: 1, Retention: Retention{Policy: RetainWindow, MaxSamples: 256},
			})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := w.Pretrain(design); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := allocated(50_000), allocated(200_000)
	t.Logf("Pretrain allocated %d B for 50 000 rows, %d B for 200 000", small, large)
	if large > small+1<<20 {
		t.Fatalf("Pretrain allocated %d B for 50 000 rows and %d B for 200 000: +%d B, want under 1 MB", small, large, large-small)
	}
}
