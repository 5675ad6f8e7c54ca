package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
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
// retention policy, the reservoir's random draws included.
func TestPretrainStreamsLikeOneIngest(t *testing.T) {
	oracle := &atomicOracle{}
	factory := func() Surrogate {
		s := NewNNSurrogate(2, 1, []int{8}, 0, xrand.New(0x57e4))
		s.Epochs = 2
		return s
	}
	probe := uniformRows(xrand.New(0x9b0be), 64, 1, 1)
	for _, ret := range []Retention{{}, {Policy: RetainWindow, MaxSamples: 300}, {Policy: RetainReservoir, MaxSamples: 300}} {
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
				if got.NTrain != n || got.NFailed != 0 || want.NTrain != 0 ||
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
