package nn

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// batchProbe builds a deterministic input batch.
func batchProbe(rng *xrand.Rand, rows, cols int) *tensor.Matrix {
	x := tensor.NewMatrix(rows, cols)
	for i := range x.Data {
		x.Data[i] = rng.Range(-2, 2)
	}
	return x
}

// TestCompiledPredictBatchMatchesPredict checks the fused batch program
// against the single-query paths, including inputs wider than the
// compiled chunk width (which must split internally, not degrade).
func TestCompiledPredictBatchMatchesPredict(t *testing.T) {
	rng := xrand.New(31)
	net := NewMLP(rng, Tanh, 0.1, 6, 30, 48, 3)
	for _, maxBatch := range []int{1, 4, 64} {
		c := net.CompileBatch(maxBatch)
		if c == nil {
			t.Fatal("CompileBatch returned nil for a Dense/Dropout network")
		}
		if c.MaxBatch() != maxBatch {
			t.Fatalf("MaxBatch() = %d, want %d", c.MaxBatch(), maxBatch)
		}
		x := batchProbe(rng.Split(), 13, 6) // 13 rows: exercises partial chunks
		got := c.PredictBatch(x, nil)
		for i := 0; i < x.Rows; i++ {
			want := evalRow(net, x.Row(i))
			for j := range want {
				if math.Abs(got.At(i, j)-want[j]) > 1e-12 {
					t.Fatalf("maxBatch=%d row %d output %d: batch %g vs single %g",
						maxBatch, i, j, got.At(i, j), want[j])
				}
			}
		}
	}
}

// zeroAllocCase is one network shape the warmed batch calls must serve
// without allocating: rows spans several chunks on the narrow nets, and
// the wide one is batch_sweep's serving net (8-128-128-4, one 64-row
// chunk, 16 MC passes), whose products are the largest any workload runs.
type zeroAllocCase struct {
	name     string
	seed     uint64
	dropout  float64
	widths   []int
	maxBatch int
	rows     int
	passes   int
}

var zeroAllocCases = []zeroAllocCase{
	{"6x30x48x3", 32, 0.1, []int{6, 30, 48, 3}, 8, 20, 10},
	{"6x12x8x2", 33, 0.2, []int{6, 12, 8, 2}, 8, 20, 10},
	{"8x128x128x4", 34, 0.1, []int{8, 128, 128, 4}, DefaultMaxBatch, 64, 16},
}

// TestCompiledPredictBatchZeroAlloc pins the tentpole contract: a warmed
// batch forward with a caller-provided destination allocates nothing,
// even when the input spans several chunks.
func TestCompiledPredictBatchZeroAlloc(t *testing.T) {
	skipAllocCheckUnderRace(t)
	for _, tc := range zeroAllocCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := xrand.New(tc.seed)
			c := NewMLP(rng, Tanh, tc.dropout, tc.widths...).CompileBatch(tc.maxBatch)
			x := batchProbe(rng, tc.rows, tc.widths[0])
			dst := tensor.NewMatrix(tc.rows, tc.widths[len(tc.widths)-1])
			c.PredictBatch(x, dst) // warm the ctx pool
			if allocs := testing.AllocsPerRun(100, func() { c.PredictBatch(x, dst) }); allocs != 0 {
				t.Fatalf("compiled PredictBatch allocates %g times per batch, want 0", allocs)
			}
		})
	}
}

// TestCompiledPredictMCBatchZeroAlloc pins the same contract for the MC
// path: the pass-stacked one on the deep two-dropout nets, at each case's
// pass count.
func TestCompiledPredictMCBatchZeroAlloc(t *testing.T) {
	skipAllocCheckUnderRace(t)
	for _, tc := range zeroAllocCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := xrand.New(tc.seed)
			c := NewMLP(rng, Tanh, tc.dropout, tc.widths...).CompileBatch(tc.maxBatch)
			x := batchProbe(rng, tc.rows, tc.widths[0])
			mean := tensor.NewMatrix(tc.rows, tc.widths[len(tc.widths)-1])
			std := tensor.NewMatrix(tc.rows, tc.widths[len(tc.widths)-1])
			c.PredictMCBatch(x, tc.passes, mean, std)
			if allocs := testing.AllocsPerRun(100, func() { c.PredictMCBatch(x, tc.passes, mean, std) }); allocs != 0 {
				t.Fatalf("compiled PredictMCBatch allocates %g times per batch, want 0", allocs)
			}
		})
	}
}

// TestCompiledMCScratchSizedOnce: a batch context's MC scratch is sized to
// the program's widest chunk on first use, so a context that first served
// one row serves a full MaxBatch chunk without allocating — on the
// pass-stacked path (two dropouts) and the masked-weight tail.
func TestCompiledMCScratchSizedOnce(t *testing.T) {
	skipAllocCheckUnderRace(t)
	rng := xrand.New(37)
	for name, net := range map[string]*Network{
		"passstacked": NewMLP(rng, Tanh, 0.2, 6, 12, 8, 2),
		"tail":        NewMLP(rng, Tanh, 0.2, 6, 12, 2),
	} {
		c := net.CompileBatch(8)
		mean, std := tensor.NewMatrix(8, 2), tensor.NewMatrix(8, 2)
		c.PredictMCBatch(batchProbe(rng, 1, 6), 10, mean, std)
		x := batchProbe(rng, 8, 6)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.PredictMCBatch(x, 10, mean, std)
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Fatalf("%s: an 8-row chunk after a 1-row one allocated %d times, want 0", name, n)
		}
	}
}

// TestCompiledMCScratchSizedOnceWide: on batch_sweep's float shape
// (8-128-128-4, a 64-row chunk, 16 passes) a fresh program's first UQ call
// allocates its two pass-group panels, the prefix chunk buffer and the
// pass reduction, and nothing sized by passes·rows.
func TestCompiledMCScratchSizedOnceWide(t *testing.T) {
	skipAllocCheckUnderRace(t)
	const rows, passes = 64, 16
	rng := xrand.New(39)
	c := NewMLP(rng, Tanh, 0.1, 8, 128, 128, 4).CompileBatch(rows)
	x := batchProbe(rng, rows, 8)
	mean, std := tensor.NewMatrix(rows, 4), tensor.NewMatrix(rows, 4)
	floats := 2*c.mcPanel() + rows*128 + 3*rows*4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.PredictMCBatch(x, passes, mean, std)
	runtime.ReadMemStats(&after)
	// 64 KB covers the context, the matrix headers and what the runtime
	// allocates meanwhile; one panel per pass would be 2 MB.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*floats+64<<10); got > limit {
		t.Fatalf("first 64-row, 16-pass call allocated %d bytes, want ≤ %d", got, limit)
	}
}

// TestCompiledMCPassCapLiftKeepsPanels: a context first used for a call
// with few passes (4) serves the next call with more (10) on the panels it
// has, and allocates nothing: no scratch grows with the pass count.
//
// MemStats.Mallocs counts every goroutine's allocations: now and then the
// test runner's parent goroutine or the runtime allocates inside the window
// (a sudog after a GC emptied the caches, a g), so one sequence can read
// high by chance. A regression allocates in every sequence, so the least
// count over several fresh programs is the call's own.
func TestCompiledMCPassCapLiftKeepsPanels(t *testing.T) {
	skipAllocCheckUnderRace(t)
	rng := xrand.New(38)
	net := NewMLP(rng, Tanh, 0.2, 6, 12, 8, 2)
	x := batchProbe(rng, 8, 6)
	mean, std := tensor.NewMatrix(8, 2), tensor.NewMatrix(8, 2)
	least := uint64(math.MaxUint64)
	for k := 0; k < 5; k++ {
		c := net.CompileBatch(8)
		c.PredictMCBatch(x, 4, mean, std)
		ctx := c.bpool.get()
		c.bpool.put(ctx)
		panels := [2]*float64{&ctx.tall[0].Data[:1][0], &ctx.tall[1].Data[:1][0]}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.PredictMCBatch(x, 10, mean, std)
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
		for i, p := range panels {
			if &ctx.tall[i].Data[:1][0] != p {
				t.Fatalf("uncapped call reallocated pass-group panel %d", i)
			}
		}
	}
	if least > 0 {
		t.Fatalf("uncapped call after a capped one allocated %d times, want 0", least)
	}
}

// TestBatchContextsSurviveGC: the batch contexts sit in a free list, not a
// sync.Pool, so a warmed float or int8 batch call still allocates nothing
// after garbage collections (two, which is what empties a sync.Pool's victim
// cache as well). It holds under -race too: nothing here is dropped at random.
func TestBatchContextsSurviveGC(t *testing.T) {
	rng := xrand.New(36)
	net := NewMLP(rng, Tanh, 0.2, 6, 12, 8, 2)
	c := net.CompileBatch(8)
	x := batchProbe(rng, 20, 6)
	q := c.Quantize(x)
	if q == nil {
		t.Fatal("quantize failed")
	}
	mean, std, oks := tensor.NewMatrix(20, 2), tensor.NewMatrix(20, 2), make([]bool, 20)
	calls := map[string]func(){
		"Compiled.PredictMCBatch":      func() { c.PredictMCBatch(x, 10, mean, std) },
		"Compiled.PredictBatch":        func() { c.PredictBatch(x, mean) },
		"QuantCompiled.PredictMCBatch": func() { q.PredictMCBatch(x, 10, mean, std, oks) },
		"QuantCompiled.PredictBatch":   func() { q.PredictBatch(x, mean, oks) },
	}
	for name, call := range calls {
		call() // warm
		collect := func() { runtime.GC(); runtime.GC() }
		idle := testing.AllocsPerRun(5, collect)
		if allocs := testing.AllocsPerRun(5, func() { collect(); call() }); allocs != idle {
			t.Fatalf("%s allocates %g times per call after two collections, want 0", name, allocs-idle)
		}
	}
}

// TestCompiledPredictMCBatchDeterministicNet checks the no-dropout
// collapse: the MC batch path must equal the eval batch pass with exactly
// zero std, across chunked inputs.
func TestCompiledPredictMCBatchDeterministicNet(t *testing.T) {
	rng := xrand.New(34)
	net := NewMLP(rng, Tanh, 0, 5, 16, 16, 2) // no dropout anywhere
	c := net.CompileBatch(4)
	x := batchProbe(rng, 11, 5)
	mean, std := c.PredictMCBatch(x, 7, nil, nil)
	want := c.PredictBatch(x, nil)
	if !tensor.Equal(mean, want, 0) {
		t.Fatal("deterministic MC batch mean differs from eval batch pass")
	}
	for _, v := range std.Data {
		if v != 0 {
			t.Fatalf("deterministic MC batch std %g, want exactly 0", v)
		}
	}
}

// TestCompiledPredictMCBatchColumnSharedMasks checks the pass-stacking
// semantics: masks are sampled once per pass and shared by every row of
// the chunk, so identical input rows inside one chunk must receive
// identical MC statistics.
func TestCompiledPredictMCBatchColumnSharedMasks(t *testing.T) {
	rng := xrand.New(35)
	net := NewMLP(rng, Tanh, 0.3, 4, 16, 8, 2) // two live dropout layers
	c := net.CompileBatch(16)                  // one chunk for the whole batch
	x := tensor.NewMatrix(6, 4)
	row := []float64{0.4, -0.7, 0.2, 0.9}
	for i := 0; i < x.Rows; i++ {
		copy(x.Row(i), row)
	}
	mean, std := c.PredictMCBatch(x, 9, nil, nil)
	for i := 1; i < x.Rows; i++ {
		for j := 0; j < 2; j++ {
			if mean.At(i, j) != mean.At(0, j) || std.At(i, j) != std.At(0, j) {
				t.Fatalf("row %d stats differ from row 0: masks not shared across the chunk", i)
			}
		}
	}
	for j := 0; j < 2; j++ {
		if std.At(0, j) <= 0 || math.IsNaN(std.At(0, j)) {
			t.Fatalf("deep dropout net std[%d] = %g, want > 0", j, std.At(0, j))
		}
	}
}

// TestCompiledPredictMCBatchAgreesWithPredictor is the statistical check
// that pass-stacked evaluation estimates the same predictive distribution
// as pass-by-pass stochastic forwards of the layer graph (mcReference,
// the predictor of record) on a deep multi-dropout net: with many passes
// both means must agree within a few standard errors.
func TestCompiledPredictMCBatchAgreesWithPredictor(t *testing.T) {
	rng := xrand.New(36)
	net := NewMLP(rng, Tanh, 0.2, 4, 24, 16, 1)
	c := net.CompileBatch(8)
	x := batchProbe(rng, 8, 4)
	const passes = 400
	mean, std := c.PredictMCBatch(x, passes, nil, nil)
	refMean, refStd := mcReference(net, x, passes)
	for i := 0; i < x.Rows; i++ {
		// Standard error of each estimate is ~std/sqrt(passes); allow 6x
		// the combined value so the test is deterministic-in-practice.
		tol := 6 * (std.At(i, 0) + refStd.At(i, 0)) / math.Sqrt(passes)
		if d := math.Abs(mean.At(i, 0) - refMean.At(i, 0)); d > tol {
			t.Fatalf("row %d: pass-stacked mean %g vs per-pass mean %g (|d|=%g > tol %g)",
				i, mean.At(i, 0), refMean.At(i, 0), d, tol)
		}
		if r := std.At(i, 0) / refStd.At(i, 0); r < 0.5 || r > 2 {
			t.Fatalf("row %d: pass-stacked std %g vs per-pass std %g disagree beyond 2x",
				i, std.At(i, 0), refStd.At(i, 0))
		}
	}
}

// TestCompiledBatchConcurrent hammers the batch entry points from many
// goroutines (run under -race): batch contexts are pooled per call and
// must not interfere.
func TestCompiledBatchConcurrent(t *testing.T) {
	rng := xrand.New(37)
	net := NewMLP(rng, Tanh, 0.1, 4, 16, 8, 2)
	c := net.CompileBatch(4)
	x := batchProbe(rng, 10, 4)
	want := c.PredictBatch(x, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := tensor.NewMatrix(10, 2)
			mean := tensor.NewMatrix(10, 2)
			std := tensor.NewMatrix(10, 2)
			for i := 0; i < 100; i++ {
				c.PredictBatch(x, dst)
				if !tensor.Equal(dst, want, 0) {
					panic("concurrent compiled PredictBatch returned wrong values")
				}
				c.PredictMCBatch(x, 5, mean, std)
			}
		}()
	}
	wg.Wait()
}

// TestRowIsBatchOfOne: the row entry points are the batch program run on
// one row. predict(x.Row(r)) is row r of PredictBatch(x) bit for bit, and
// PredictMC on a row gives what PredictMCBatch gives on that row alone —
// with two dropouts (6-30-48-3), three (8-64-64-64-1), a one-step
// stochastic suffix (2-24-1) and no dropout, at several chunk widths.
func TestRowIsBatchOfOne(t *testing.T) {
	rng := xrand.New(43)
	for _, tc := range []struct {
		widths []int
		drop   float64
	}{{[]int{6, 30, 48, 3}, 0.1}, {[]int{2, 24, 1}, 0.1}, {[]int{8, 64, 64, 64, 1}, 0.15}, {[]int{4, 16, 2}, 0}} {
		net := NewMLP(rng.Split(), Tanh, tc.drop, tc.widths...)
		for _, maxBatch := range []int{1, 4, 64} {
			c := net.CompileBatch(maxBatch)
			x := batchProbe(rng, 13, tc.widths[0])
			batch := c.PredictBatch(x, nil)
			for r := 0; r < x.Rows; r++ {
				check := func(what string, got, want []float64) {
					t.Helper()
					for j := range want {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("%v maxBatch %d row %d: %s output %d is %v, the batch of one gives %v",
								tc.widths, maxBatch, r, what, j, got[j], want[j])
						}
					}
				}
				check("Predict", c.predict(x.Row(r), nil), batch.Row(r))
				for _, passes := range []int{1, 10, 30} {
					mean, std := c.PredictMC(x.Row(r), passes, nil, nil)
					bm, bs := c.PredictMCBatch(x.SliceRows(r, r+1), passes, nil, nil)
					check("PredictMC mean", mean, bm.Data)
					check("PredictMC std", std, bs.Data)
				}
			}
		}
	}
}
