package tensor

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestAppendRow(t *testing.T) {
	m := NewMatrix(0, 3)
	m.AppendRow([]float64{1, 2, 3})
	m.AppendRow([]float64{4, 5, 6})
	if m.Rows != 2 || m.At(1, 2) != 6 {
		t.Fatalf("append built %dx%d with %v", m.Rows, m.Cols, m.Data)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged AppendRow did not panic")
		}
	}()
	m.AppendRow([]float64{7})
}

func TestGatherRowsInto(t *testing.T) {
	src := FromRows([][]float64{{0, 1}, {10, 11}, {20, 21}, {30, 31}})
	got := GatherRowsInto(nil, src, []int{3, 1})
	want := FromRows([][]float64{{30, 31}, {10, 11}})
	if !Equal(got, want, 0) {
		t.Fatalf("gather got %v", got.Data)
	}
	// Reuse path: a larger previous buffer must reshape, not reallocate.
	buf := NewMatrix(4, 2)
	data := &buf.Data[0]
	out := GatherRowsInto(buf, src, []int{0})
	if out.Rows != 1 || out.At(0, 1) != 1 {
		t.Fatalf("reused gather wrong: %v", out.Data)
	}
	if &out.Data[0] != data {
		t.Fatal("gather into smaller shape reallocated")
	}
	// Empty index set yields a 0-row matrix.
	if e := GatherRowsInto(nil, src, nil); e.Rows != 0 || e.Cols != 2 {
		t.Fatalf("empty gather %dx%d", e.Rows, e.Cols)
	}
	// One column: a value an index.
	col := FromRows([][]float64{{5}, {6}, {7}})
	if got := GatherRowsInto(nil, col, []int{2, 2, 0}); got.Rows != 3 || got.Cols != 1 || got.Data[0] != 7 || got.Data[1] != 7 || got.Data[2] != 5 {
		t.Fatalf("one-column gather got %dx%d %v", got.Rows, got.Cols, got.Data)
	}
	// Rows wider than the element-by-element copy takes.
	wide := NewMatrix(3, 11)
	for i := range wide.Data {
		wide.Data[i] = float64(i)
	}
	if got := GatherRowsInto(nil, wide, []int{2, 0}); got.At(0, 10) != 32 || got.At(1, 0) != 0 || got.At(1, 10) != 10 {
		t.Fatalf("wide gather got %v", got.Data)
	}
}

// TestParallelTuningVars locks in that the fan-out heuristic derives from
// the settable package vars and that kernel results do not depend on the
// fan-out decision.
func TestParallelTuningVars(t *testing.T) {
	oldW, oldT := ParallelWorkers, ParallelFlopThreshold
	defer func() { ParallelWorkers, ParallelFlopThreshold = oldW, oldT }()

	ParallelWorkers = 1
	if useParallel(1024, 1<<30) {
		t.Fatal("single worker must never fan out")
	}
	ParallelWorkers = 8
	ParallelFlopThreshold = 100
	if !useParallel(64, 101) {
		t.Fatal("work above threshold with workers available should fan out")
	}
	if useParallel(1, 101) {
		t.Fatal("single-row kernels cannot shard")
	}

	// Same product computed inline and fanned out must agree exactly
	// (identical per-row arithmetic, only the scheduling differs).
	a := NewMatrix(16, 12)
	b := NewMatrix(12, 8)
	for i := range a.Data {
		a.Data[i] = float64(i%7) - 3
	}
	for i := range b.Data {
		b.Data[i] = float64(i%5) - 2
	}
	ParallelFlopThreshold = 1 << 60 // force inline
	inline := MatMul(a, b)
	ParallelFlopThreshold = 1 // force fan-out
	fanned := MatMul(a, b)
	if !Equal(inline, fanned, 0) {
		t.Fatal("fan-out changed matmul result")
	}
}

func TestDefaultFlopThreshold(t *testing.T) {
	if got := defaultFlopThreshold(2); got != 32*32*32 {
		t.Fatalf("2-core threshold %d want %d", got, 32*32*32)
	}
	if got := defaultFlopThreshold(16); got != 16384*16 {
		t.Fatalf("16-core threshold %d want %d", got, 16384*16)
	}
}

// TestParallelRangesCallerWorks holds every range at a barrier, so all of
// them are running at once, and counts the goroutines that took: one fewer
// than the ranges, because the caller runs one itself. The ranges must
// tile [0,rows) exactly.
func TestParallelRangesCallerWorks(t *testing.T) {
	oldW := ParallelWorkers
	defer func() { ParallelWorkers = oldW }()
	ParallelWorkers = 4
	base := runtime.NumGoroutine()
	for _, rows := range []int{2, 3, 4, 5, 7, 10, 64} {
		// A goroutine of the previous round has called Done but may not
		// have been torn down yet: give the count a moment.
		for wait := time.Now(); runtime.NumGoroutine() > base && time.Since(wait) < time.Second; {
			runtime.Gosched()
		}
		workers := min(ParallelWorkers, rows)
		chunk := (rows + workers - 1) / workers
		ranges := (rows + chunk - 1) / chunk
		before := runtime.NumGoroutine()
		var mu sync.Mutex
		var barrier sync.WaitGroup
		barrier.Add(ranges)
		covered := make([]int, rows)
		spawned := 0
		parallelRanges(rows, func(lo, hi int) {
			barrier.Done()
			barrier.Wait()
			mu.Lock()
			defer mu.Unlock()
			if g := runtime.NumGoroutine() - before; g > spawned {
				spawned = g
			}
			for i := lo; i < hi; i++ {
				covered[i]++
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("rows=%d: row %d covered %d times", rows, i, c)
			}
		}
		if spawned != ranges-1 {
			t.Fatalf("rows=%d: %d goroutines spawned for %d ranges, want %d", rows, spawned, ranges, ranges-1)
		}
	}
}
