package core

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// fillRow returns an n-wide row whose first element tags the sample's
// birth index, so retention tests can identify which samples survived.
func fillRow(idx, n int) []float64 {
	row := make([]float64, n)
	row[0] = float64(idx)
	return row
}

// TestRetainerWindowKeepsRecent checks the sliding-window policy: the
// store stays within MaxSamples plus the amortization slack and always
// holds a contiguous run of the most recent samples.
func TestRetainerWindowKeepsRecent(t *testing.T) {
	const max = 20
	r := Retention{Policy: RetainWindow, MaxSamples: max}
	xs := tensor.NewMatrix(0, 2)
	ys := tensor.NewMatrix(0, 1)
	for i := 0; i < 500; i++ {
		r.add(xs, ys, fillRow(i, 2), fillRow(i, 1))
		if xs.Rows > max+max/4 {
			t.Fatalf("after %d adds the window holds %d rows, want <= %d", i+1, xs.Rows, max+max/4)
		}
		if ys.Rows != xs.Rows {
			t.Fatal("xs and ys row counts diverged")
		}
	}
	if xs.Rows < max {
		t.Fatalf("window shrank below MaxSamples: %d rows", xs.Rows)
	}
	// The retained tags must be the last xs.Rows indices in order.
	first := 500 - xs.Rows
	for i := 0; i < xs.Rows; i++ {
		if got := int(xs.At(i, 0)); got != first+i {
			t.Fatalf("row %d holds sample %d, want %d (window lost recency order)", i, got, first+i)
		}
		if int(ys.At(i, 0)) != first+i {
			t.Fatal("ys row disagrees with its paired xs row")
		}
	}
}

// TestWindowAfterPredictsAdd: windowAfter(held, n), the planner's
// prediction, is the row count add leaves after n adds onto a window of
// held rows — at every step to 3 000 adds, from an empty window to one a
// row short of its cut, and for a window small enough that its overhang is
// the one-row floor.
func TestWindowAfterPredictsAdd(t *testing.T) {
	for _, tc := range []struct {
		max  int
		held []int
	}{{1024, []int{0, 1, 300, 1279}}, {3, []int{0, 1, 3}}} {
		ret := Retention{Policy: RetainWindow, MaxSamples: tc.max}
		for _, held := range tc.held {
			xs, ys := tensor.NewMatrix(0, 1), tensor.NewMatrix(0, 1)
			for i := 0; i < held; i++ {
				ret.add(xs, ys, fillRow(i, 1), fillRow(i, 1))
			}
			for n := 0; n <= 3000; n++ {
				if n > 0 {
					ret.add(xs, ys, fillRow(held+n, 1), fillRow(held+n, 1))
				}
				if got := ret.windowAfter(held, n); got != xs.Rows {
					t.Fatalf("MaxSamples %d, %d held: after %d adds the window holds %d rows, windowAfter says %d", tc.max, held, n, xs.Rows, got)
				}
			}
		}
	}
}

// TestShardedRetentionBoundsShards ingests a long stream into a sharded
// wrapper with a sliding window and checks every shard stays under the
// window's limit.
func TestShardedRetentionBoundsShards(t *testing.T) {
	rng := xrand.New(0x7e7a2)
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{x[0] * x[1]}, nil
	}}
	factory := NewNNSurrogateFactory(2, 1, []int{8}, 0.1, rng, func(s *NNSurrogate) {
		s.Epochs = 5
		s.MCPasses = 4
	})
	ret := Retention{Policy: RetainWindow, MaxSamples: 25}
	w := NewShardedWrapper(oracle, factory, ShardedConfig{
		Shards: 3, MinTrainSamples: 10, UQThreshold: 100,
		Retention: ret,
	})
	xs := tensor.NewMatrix(600, 2)
	ys := tensor.NewMatrix(600, 1)
	for i := 0; i < xs.Rows; i++ {
		a, b := rng.Range(-1, 1), rng.Range(-1, 1)
		xs.Set(i, 0, a)
		xs.Set(i, 1, b)
		ys.Set(i, 0, a*b)
	}
	if err := w.Ingest(xs, ys); err != nil {
		t.Fatal(err)
	}
	_, limit := ret.windowBounds()
	for si, n := range w.ShardSizes() {
		if n >= limit {
			t.Fatalf("shard %d holds %d samples, want < %d", si, n, limit)
		}
	}
	if err := w.TrainAll(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	// The bounded shards must still serve.
	y, src, _, err := w.Query([]float64{0.2, 0.4})
	if err != nil || src != FromSurrogate {
		t.Fatalf("post-retention query src=%v err=%v", src, err)
	}
	if math.IsNaN(y[0]) {
		t.Fatal("NaN prediction from retention-trained shard")
	}
}
