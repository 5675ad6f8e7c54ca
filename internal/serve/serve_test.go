package serve

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/raceflag"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// fakeBackend is a deterministic Backend: y = x0 + 2*x1, with optional
// per-row failure/panic triggers keyed off the input value, an optional
// fixed delay (to create caller overlap) and an optional block channel
// (to hold batches in flight).
type fakeBackend struct {
	in, out   int
	delay     time.Duration
	batches   atomic.Int64
	failAt    float64       // rows with x0 == failAt get a row error
	panicAt   float64       // a batch containing x0 == panicAt panics
	block     chan struct{} // blocks the FIRST batch after blockUsed reset
	blockUsed atomic.Bool
}

func newFakeBackend() *fakeBackend { return &fakeBackend{in: 2, out: 1} }

func (f *fakeBackend) Dims() (int, int) { return f.in, f.out }

func (f *fakeBackend) QueryBatchInto(xs *tensor.Matrix, res []core.BatchResult) error {
	f.batches.Add(1)
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.block != nil && f.blockUsed.CompareAndSwap(false, true) {
		<-f.block
	}
	for i := 0; i < xs.Rows; i++ {
		row := xs.Row(i)
		if f.panicAt != 0 && row[0] == f.panicAt {
			panic("fake backend exploded")
		}
		if f.failAt != 0 && row[0] == f.failAt {
			res[i] = core.BatchResult{Src: core.FromSimulation, Err: errors.New("row failed")}
			continue
		}
		res[i] = core.BatchResult{Y: []float64{row[0] + 2*row[1]}, Src: core.FromSurrogate}
	}
	return nil
}

// TestCoalescerCorrectness checks every concurrent caller gets exactly
// its own answer back, and that overlapping load actually coalesces
// (run under -race). The backend delay guarantees callers overlap, so
// the adaptive gather has concurrency to harvest.
func TestCoalescerCorrectness(t *testing.T) {
	fb := newFakeBackend()
	fb.delay = 100 * time.Microsecond
	c := NewCoalescer(fb, Config{MaxBatch: 8})
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for i := 0; i < 50; i++ {
				x := []float64{rng.Range(-1, 1), rng.Range(-1, 1)}
				r, err := c.Query(x)
				if err != nil {
					t.Error(err)
					return
				}
				want := x[0] + 2*x[1]
				if math.Abs(r.Y[0]-want) > 1e-15 {
					t.Errorf("got %g want %g", r.Y[0], want)
					return
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	st := c.Stats()
	if st.Queries != 800 {
		t.Fatalf("stats counted %d queries, want 800", st.Queries)
	}
	if st.MeanBatch() <= 1 {
		t.Fatalf("mean batch %.2f: overlapping load did not coalesce at all", st.MeanBatch())
	}
}

// withGather sets the coalescer's gather deadline and stall count for
// the rest of the test.
func withGather(t *testing.T, delay time.Duration, spins int) {
	t.Helper()
	oldDelay, oldSpins := maxDelay, stallSpins
	maxDelay, stallSpins = delay, spins
	t.Cleanup(func() { maxDelay, stallSpins = oldDelay, oldSpins })
}

// TestCoalescerLoneQueryNoWait pins the sparse-traffic contract: a query
// with no concurrent company dispatches immediately as a batch of 1 —
// it is never taxed with a gather wait.
func TestCoalescerLoneQueryNoWait(t *testing.T) {
	fb := newFakeBackend()
	c := NewCoalescer(fb, Config{MaxBatch: 64})
	defer c.Close()
	t0 := time.Now()
	r, err := c.Query([]float64{0.5, 0.25})
	dt := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Y[0] != 1.0 {
		t.Fatalf("got %g want 1.0", r.Y[0])
	}
	if got := c.Stats().Batches; got != 1 {
		t.Fatalf("dispatched %d batches, want 1", got)
	}
	// Generous bound: the point is that the gather deadline (and any
	// timer machinery) never entered the picture.
	if dt > time.Second {
		t.Fatalf("lone query took %v; sparse bypass dead", dt)
	}
}

// TestCoalescerDenseClassification pins the sparse/dense cutoff the solo
// bypass consults: cold starts and slow arrival streams read as sparse
// (dispatch solo, no wait); arrival intervals well inside the gather
// budget read as dense (lead a gather even when active == 1, so
// invisible concurrency on few cores still coalesces).
func TestCoalescerDenseClassification(t *testing.T) {
	c := NewCoalescer(newFakeBackend(), Config{})
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.denseLocked() {
		t.Fatal("cold start classified dense; first queries must bypass solo")
	}
	c.ewmaNs = float64(5 * time.Microsecond) // 4x estimate well under maxDelay
	if !c.denseLocked() {
		t.Fatal("5µs arrival interval classified sparse under a 200µs budget")
	}
	c.ewmaNs = float64(time.Millisecond) // even one peer would outwait the budget
	if c.denseLocked() {
		t.Fatal("1ms arrival interval classified dense under a 200µs budget")
	}
}

// TestCoalescerSizeTrigger checks a full batch dispatches without
// waiting out any deadline: concurrent queries against a blocked-forming
// batch complete promptly even with an hour-long gather deadline.
func TestCoalescerSizeTrigger(t *testing.T) {
	fb := newFakeBackend()
	fb.delay = 50 * time.Microsecond
	withGather(t, time.Hour, stallSpins)
	c := NewCoalescer(fb, Config{MaxBatch: 4})
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Query([]float64{float64(i), 0}); err != nil {
				t.Error(err)
			}
		}(g)
	}
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		t.Fatal("queries stuck behind an hour-long deadline; size/stall triggers dead")
	}
}

// TestCoalescerRowErrors checks per-row oracle failures land on exactly
// the failing caller.
func TestCoalescerRowErrors(t *testing.T) {
	fb := newFakeBackend()
	fb.failAt = 7
	fb.delay = 20 * time.Microsecond
	c := NewCoalescer(fb, Config{MaxBatch: 4})
	defer c.Close()
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x0 := float64(i)
			if i%4 == 3 {
				x0 = 7 // the poisoned row
			}
			_, err := c.Query([]float64{x0, 1})
			if x0 == 7 {
				if err == nil {
					t.Error("poisoned row returned no error")
				} else {
					failures.Add(1)
				}
			} else if err != nil {
				t.Errorf("healthy row got error %v", err)
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() != 2 {
		t.Fatalf("%d callers saw the row error, want 2", failures.Load())
	}
}

// blockerQuery parks one in-flight query inside the backend so that
// subsequent queries see standing concurrency and gather instead of
// dispatching solo. Returns a channel yielding the blocker's error.
func blockerQuery(c *Coalescer, fb *fakeBackend) <-chan error {
	fb.block = make(chan struct{})
	fb.blockUsed.Store(false)
	res := make(chan error, 1)
	go func() {
		_, err := c.Query([]float64{1, 1})
		res <- err
	}()
	for fb.batches.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	return res
}

// TestCoalescerPanicPropagation checks a backend panic reaches exactly
// the callers of the affected batch: they re-panic with the original
// value, other batches are untouched, and the coalescer keeps serving.
func TestCoalescerPanicPropagation(t *testing.T) {
	fb := newFakeBackend()
	fb.panicAt = 9
	// Stall/deadline triggers effectively disabled: batch membership is
	// decided purely by the size trigger, deterministically.
	withGather(t, time.Hour, 1<<30)
	c := NewCoalescer(fb, Config{MaxBatch: 3})
	defer c.Close()

	// A blocked lone query keeps the concurrency up so the poisoned trio
	// gathers into one batch.
	blockerRes := blockerQuery(c, fb)

	var panics atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if pv := recover(); pv != nil {
					if pv != "fake backend exploded" {
						t.Errorf("unexpected panic value %v", pv)
					}
					panics.Add(1)
				}
			}()
			x0 := float64(i)
			if i == 0 {
				x0 = 9 // poison the batch
			}
			c.Query([]float64{x0, 0})
		}(g)
	}
	wg.Wait()
	if panics.Load() != 3 {
		t.Fatalf("%d callers panicked, want all 3 of the poisoned batch", panics.Load())
	}
	// The blocker's batch is untouched by its sibling's panic.
	close(fb.block)
	if err := <-blockerRes; err != nil {
		t.Fatalf("blocker caught its neighbour's panic: %v", err)
	}
	// The coalescer must still serve after a poisoned batch.
	r, err := c.Query([]float64{1, 1})
	if err != nil || r.Y[0] != 3 {
		t.Fatalf("serving broken after panic: %v %v", r, err)
	}
}

// TestCoalescerCloseDuringInflight checks graceful drain: Close while
// batches are executing waits for them, their callers get real results,
// and later queries fail with ErrClosed.
func TestCoalescerCloseDuringInflight(t *testing.T) {
	fb := newFakeBackend()
	c := NewCoalescer(fb, Config{MaxBatch: 2})
	blockerRes := blockerQuery(c, fb)

	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a batch was still executing")
	case <-time.After(20 * time.Millisecond):
	}
	close(fb.block) // let the in-flight batch finish
	<-closed
	if err := <-blockerRes; err != nil {
		t.Fatalf("in-flight caller got %v, want its result", err)
	}
	if _, err := c.Query([]float64{0, 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close query returned %v, want ErrClosed", err)
	}
}

// TestCoalescerCloseFlushesFormingBatch checks Close dispatches a batch
// still gathering (its leader pinned down by disabled stall/deadline
// triggers) instead of stranding its callers.
func TestCoalescerCloseFlushesFormingBatch(t *testing.T) {
	fb := newFakeBackend()
	withGather(t, time.Hour, 1<<30)
	c := NewCoalescer(fb, Config{MaxBatch: 64})
	blockerRes := blockerQuery(c, fb)

	// This query gathers (the blocker keeps active > 1) and can only
	// leave via Close: the batch never fills, the leader never stalls.
	res := make(chan error, 1)
	go func() {
		_, err := c.Query([]float64{2, 1})
		res <- err
	}()
	for c.Stats().Queries < 2 {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	time.Sleep(10 * time.Millisecond)
	close(fb.block) // release the blocker and the flushed batch
	select {
	case err := <-res:
		if err != nil {
			t.Fatalf("flushed caller got %v, want result", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close stranded the forming batch's caller")
	}
	<-closed
	if err := <-blockerRes; err != nil {
		t.Fatal(err)
	}
}

// TestCoalescerDimsMismatch checks malformed queries fail fast without
// joining a batch.
func TestCoalescerDimsMismatch(t *testing.T) {
	c := NewCoalescer(newFakeBackend(), Config{})
	defer c.Close()
	if _, err := c.Query([]float64{1, 2, 3}); err == nil {
		t.Fatal("3-dim query accepted by 2-dim backend")
	}
	if got := c.Stats().Queries; got != 0 {
		t.Fatalf("malformed query counted: %d", got)
	}
}

// TestCoalescerAgainstWrapper is the integration check: coalesced
// queries through a real UQ-gated wrapper return well-formed surrogate
// answers under concurrent load.
func TestCoalescerAgainstWrapper(t *testing.T) {
	rng := xrand.New(0xc0a1)
	oracle := core.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{x[0]*x[0] + 0.5*x[1]}, nil
	}}
	factory := core.NewNNSurrogateFactory(2, 1, []int{16}, 0.1, rng.Split(), func(s *core.NNSurrogate) {
		s.Epochs = 60
		s.MCPasses = 8
	})
	w := core.NewShardedWrapper(oracle, factory, core.ShardedConfig{Shards: 1, MinTrainSamples: 10, UQThreshold: 10})
	design := tensor.NewMatrix(60, 2)
	for i := 0; i < design.Rows; i++ {
		design.Set(i, 0, rng.Range(-1, 1))
		design.Set(i, 1, rng.Range(-1, 1))
	}
	if err := w.Pretrain(design); err != nil {
		t.Fatal(err)
	}
	c := NewCoalescer(w, Config{MaxBatch: 8})
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			crng := xrand.New(seed)
			for i := 0; i < 50; i++ {
				x := []float64{crng.Range(-1, 1), crng.Range(-1, 1)}
				r, err := c.Query(x)
				if err != nil {
					t.Error(err)
					return
				}
				if r.Src != core.FromSurrogate {
					t.Errorf("UQThreshold 10 query fell back to simulation")
					return
				}
				if len(r.Y) != 1 || len(r.Std) != 1 {
					t.Errorf("malformed result %+v", r)
					return
				}
			}
		}(uint64(1000 + g))
	}
	wg.Wait()
	if got := c.Stats().Queries; got != 400 {
		t.Fatalf("stats counted %d queries, want 400", got)
	}
}

// TestCoalescerBatchWiderThanCompiledWidth is the regression test for
// micro-batches exceeding the surrogate's compiled batch width: the
// backend must split them across fused chunks (never degrade to
// per-query fallback) and every caller must still receive its own exact
// answer. The surrogate is deterministic (no dropout), so each result can
// be checked against a direct single-point prediction.
func TestCoalescerBatchWiderThanCompiledWidth(t *testing.T) {
	rng := xrand.New(0xc0a3)
	oracle := core.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{x[0]*x[0] - x[1]}, nil
	}}
	var sur *core.NNSurrogate // the one model Pretrain publishes
	factory := core.NewNNSurrogateFactory(2, 1, []int{16}, 0, rng.Split(), func(s *core.NNSurrogate) {
		s.Epochs = 40
		s.MCPasses = 4
		s.MaxBatch = 8 // compiled width far below the coalescer's MaxBatch
		sur = s
	})
	w := core.NewShardedWrapper(oracle, factory, core.ShardedConfig{Shards: 1, MinTrainSamples: 10, UQThreshold: 100})
	design := tensor.NewMatrix(40, 2)
	for i := 0; i < design.Rows; i++ {
		design.Set(i, 0, rng.Range(-1, 1))
		design.Set(i, 1, rng.Range(-1, 1))
	}
	if err := w.Pretrain(design); err != nil {
		t.Fatal(err)
	}
	rec := &widthRecordingBackend{
		inner:    w,
		block:    make(chan struct{}),
		sawFirst: make(chan struct{}),
	}
	withGather(t, 50*time.Millisecond, 512)
	c := NewCoalescer(rec, Config{MaxBatch: 64})
	defer c.Close()

	// A blocker query holds the first batch in flight, so the following 16
	// queries all pile into one forming micro-batch — twice the compiled
	// width — before the leader dispatches it.
	blockerDone := make(chan error, 1)
	go func() {
		_, err := c.Query([]float64{0.1, 0.2})
		blockerDone <- err
	}()
	<-rec.sawFirst

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			crng := xrand.New(seed)
			x := []float64{crng.Range(-1, 1), crng.Range(-1, 1)}
			r, err := c.Query(x)
			if err != nil {
				t.Error(err)
				return
			}
			if r.Src != core.FromSurrogate {
				t.Error("query fell back to simulation under a wide-open UQ gate")
				return
			}
			want := core.Predict(sur, x)
			if math.Abs(r.Y[0]-want[0]) > 1e-12 {
				t.Errorf("coalesced answer %g differs from direct prediction %g", r.Y[0], want[0])
			}
		}(uint64(3000 + g))
	}
	wg.Wait()
	close(rec.block)
	if err := <-blockerDone; err != nil {
		t.Fatal(err)
	}
	// The dispatches must actually have exceeded the compiled width, or
	// this test proved nothing about chunk splitting.
	if mx := rec.maxRows.Load(); mx <= 8 {
		t.Fatalf("widest dispatched batch was %d rows; need > 8 to exercise the chunked path", mx)
	}
	if got := c.Stats().Queries; got != 17 {
		t.Fatalf("stats counted %d queries, want 17", got)
	}
}

// widthRecordingBackend forwards to an inner Backend, recording the
// widest batch it was asked to serve. The first batch it receives parks
// on the block channel (after signalling sawFirst), holding its caller in
// flight so later queries must gather instead of dispatching solo.
type widthRecordingBackend struct {
	inner    Backend
	maxRows  atomic.Int64
	first    atomic.Bool
	block    chan struct{}
	sawFirst chan struct{}
}

func (b *widthRecordingBackend) Dims() (int, int) { return b.inner.Dims() }

func (b *widthRecordingBackend) QueryBatchInto(xs *tensor.Matrix, res []core.BatchResult) error {
	for {
		old := b.maxRows.Load()
		if int64(xs.Rows) <= old || b.maxRows.CompareAndSwap(old, int64(xs.Rows)) {
			break
		}
	}
	if b.first.CompareAndSwap(false, true) {
		close(b.sawFirst)
		<-b.block
	}
	return b.inner.QueryBatchInto(xs, res)
}

// TestCoalescerSlowOracleCoalesces drives a wrapper whose every query
// falls back to a slow oracle: callers pile up behind the in-flight
// batch, so the gather must harvest that concurrency into real batches.
func TestCoalescerSlowOracleCoalesces(t *testing.T) {
	rng := xrand.New(0xc0a2)
	oracle := core.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		time.Sleep(100 * time.Microsecond)
		return []float64{x[0] - x[1]}, nil
	}}
	factory := core.NewNNSurrogateFactory(2, 1, []int{8}, 0.1, rng, nil)
	w := core.NewShardedWrapper(oracle, factory, core.ShardedConfig{
		Shards:          1,
		MinTrainSamples: 1 << 30, // never trains: every row runs the oracle
		OracleWorkers:   8,
	})
	c := NewCoalescer(w, Config{MaxBatch: 16})
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			crng := xrand.New(seed)
			for i := 0; i < 25; i++ {
				x := []float64{crng.Range(-1, 1), crng.Range(-1, 1)}
				r, err := c.Query(x)
				if err != nil {
					t.Error(err)
					return
				}
				if math.Abs(r.Y[0]-(x[0]-x[1])) > 1e-12 {
					t.Errorf("oracle row corrupted: %g want %g", r.Y[0], x[0]-x[1])
					return
				}
			}
		}(uint64(2000 + g))
	}
	wg.Wait()
	if mb := c.Stats().MeanBatch(); mb <= 1 {
		t.Fatalf("slow-oracle mean batch %.2f, want coalescing > 1", mb)
	}
}

// TestCoalescerQueryInto checks the allocation-free form: answers are
// copied into the caller's buffers (which the Result aliases), row errors
// still surface per caller, and undersized buffers are rejected up front.
func TestCoalescerQueryInto(t *testing.T) {
	fb := newFakeBackend()
	fb.failAt = 7.0
	c := NewCoalescer(fb, Config{MaxBatch: 8})
	defer c.Close()

	y := make([]float64, 1)
	std := make([]float64, 1)
	r, err := c.QueryInto([]float64{0.5, 0.25}, y, std)
	if err != nil {
		t.Fatal(err)
	}
	if r.Y[0] != 1.0 || y[0] != 1.0 {
		t.Fatalf("QueryInto copied %g into y=%g, want 1.0 in both", r.Y[0], y[0])
	}
	if &r.Y[0] != &y[0] {
		t.Fatal("Result.Y does not alias the caller's buffer")
	}
	if _, err := c.QueryInto([]float64{7.0, 0}, y, std); err == nil {
		t.Fatal("row error did not surface through QueryInto")
	}
	if _, err := c.QueryInto([]float64{0, 0}, nil, std); err == nil {
		t.Fatal("undersized y buffer accepted")
	}
}

// TestCoalescerQueryIntoZeroAlloc pins the steady-state zero-allocation
// contract of the fleet query path: a warmed single-caller loop through
// QueryInto — whether classified sparse (solo bypass) or dense
// (single-caller gather, whose batch never mints a done channel) —
// performs no heap allocations.
func TestCoalescerQueryIntoZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts under -race; alloc counts are meaningless")
	}
	fb := newZeroAllocBackend()
	c := NewCoalescer(fb, Config{MaxBatch: 8})
	defer c.Close()
	x := []float64{0.25, 0.5}
	y := make([]float64, 1)
	std := make([]float64, 1)
	for i := 0; i < 256; i++ { // warm pool, EWMA and result capacities
		if _, err := c.QueryInto(x, y, std); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(512, func() {
		if _, err := c.QueryInto(x, y, std); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state QueryInto allocates %.2f/op, want 0", allocs)
	}
}

// zeroAllocBackend answers y = x0 - x1 writing into the pooled result
// rows without allocating once its row capacities are warm.
type zeroAllocBackend struct{}

func newZeroAllocBackend() *zeroAllocBackend { return &zeroAllocBackend{} }

func (z *zeroAllocBackend) Dims() (int, int) { return 2, 1 }

func (z *zeroAllocBackend) QueryBatchInto(xs *tensor.Matrix, res []core.BatchResult) error {
	for i := 0; i < xs.Rows; i++ {
		row := xs.Row(i)
		res[i].Y = append(res[i].Y[:0], row[0]-row[1])
		res[i].Std = append(res[i].Std[:0], 0.01)
		res[i].Src = core.FromSurrogate
		res[i].Err = nil
	}
	return nil
}

// TestCoalescerSharedPool runs two coalescers of different backend shapes
// over one shared BatchPool under concurrent load (run with -race): the
// recycled batches are reshaped per lease, so tenants never observe each
// other's rows.
func TestCoalescerSharedPool(t *testing.T) {
	pool := NewBatchPool()
	fb2 := newFakeBackend() // 2-in: y = x0 + 2*x1
	fb2.delay = 20 * time.Microsecond
	wide := &wideBackend{} // 3-in, 2-out
	c2 := NewCoalescer(fb2, Config{MaxBatch: 8, Pool: pool})
	defer c2.Close()
	c3 := NewCoalescer(wide, Config{MaxBatch: 8, Pool: pool})
	defer c3.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for i := 0; i < 100; i++ {
				if seed%2 == 0 {
					x := []float64{rng.Range(-1, 1), rng.Range(-1, 1)}
					r, err := c2.Query(x)
					if err != nil {
						t.Error(err)
						return
					}
					if math.Abs(r.Y[0]-(x[0]+2*x[1])) > 1e-15 {
						t.Errorf("2d tenant: got %g want %g", r.Y[0], x[0]+2*x[1])
						return
					}
				} else {
					x := []float64{rng.Range(-1, 1), rng.Range(-1, 1), rng.Range(-1, 1)}
					r, err := c3.Query(x)
					if err != nil {
						t.Error(err)
						return
					}
					if len(r.Y) != 2 || math.Abs(r.Y[0]-(x[0]+x[1]+x[2])) > 1e-15 || math.Abs(r.Y[1]-x[0]*x[1]) > 1e-15 {
						t.Errorf("3d tenant: corrupted row %v for %v", r.Y, x)
						return
					}
				}
			}
		}(uint64(100 + g))
	}
	wg.Wait()
}

// wideBackend is a 3-in 2-out deterministic backend: y = (sum, x0*x1).
type wideBackend struct{}

func (w *wideBackend) Dims() (int, int) { return 3, 2 }

func (w *wideBackend) QueryBatchInto(xs *tensor.Matrix, res []core.BatchResult) error {
	for i := 0; i < xs.Rows; i++ {
		row := xs.Row(i)
		res[i] = core.BatchResult{
			Y:   []float64{row[0] + row[1] + row[2], row[0] * row[1]},
			Src: core.FromSurrogate,
		}
	}
	return nil
}

// misbehavingBackend violates the QueryBatchInto every-row-written
// contract: it errors out without touching res.
type misbehavingBackend struct{ healthy fakeBackend }

func (m *misbehavingBackend) Dims() (int, int) { return 2, 1 }

func (m *misbehavingBackend) QueryBatchInto(xs *tensor.Matrix, res []core.BatchResult) error {
	if xs.Row(0)[0] < 0 {
		return errors.New("backend bailed before writing any row")
	}
	return m.healthy.QueryBatchInto(xs, res)
}

// TestCoalescerStaleRowGuard pins the pooled-row safety net: a backend
// that errors without writing its rows must surface an error — never a
// previous batch's recycled answer.
func TestCoalescerStaleRowGuard(t *testing.T) {
	c := NewCoalescer(&misbehavingBackend{}, Config{MaxBatch: 8})
	defer c.Close()
	// Warm the pool with healthy queries so recycled rows hold real
	// (stale) answers.
	for i := 0; i < 32; i++ {
		if _, err := c.Query([]float64{1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		r, err := c.Query([]float64{-1, 1}) // triggers the early error
		if err == nil {
			t.Fatalf("contract-violating backend returned no error (Y=%v)", r.Y)
		}
		if r.Y != nil {
			t.Fatalf("stale pooled row leaked to the caller: %v", r.Y)
		}
	}
}
