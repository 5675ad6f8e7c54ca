package fleet

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/raceflag"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// query is one point through QueryInto, answered into fresh slices.
func (f *Fleet) query(name string, x []float64) (serve.Result, error) {
	return f.QueryInto(name, x, nil, nil)
}

// fakeBackend is a deterministic serve.Backend: y = scale*x0 + 2*x1,
// with optional panic trigger, fixed delay and a block channel to hold
// batches in flight. Its QueryBatchInto reuses row capacities, so warmed
// dispatches are allocation-free.
type fakeBackend struct {
	scale   float64
	delay   time.Duration
	panicAt float64
	block   chan struct{}
	blockOn atomic.Bool
	batches atomic.Int64
}

func (f *fakeBackend) Dims() (int, int) { return 2, 1 }

func (f *fakeBackend) QueryBatchInto(xs *tensor.Matrix, res []core.BatchResult) error {
	f.batches.Add(1)
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.blockOn.Load() {
		<-f.block
	}
	for i := 0; i < xs.Rows; i++ {
		row := xs.Row(i)
		if f.panicAt != 0 && row[0] == f.panicAt {
			panic("tenant model exploded")
		}
		res[i].Y = append(res[i].Y[:0], f.scale*row[0]+2*row[1])
		res[i].Std = append(res[i].Std[:0], 0.01)
		res[i].Src = core.FromSurrogate
		res[i].Err = nil
	}
	return nil
}

// TestFleetRoutesTenants checks queries land on the named tenant's
// backend and lifecycle basics hold.
func TestFleetRoutesTenants(t *testing.T) {
	f := New(Config{})
	defer f.Close()
	if err := f.Register("pot", &fakeBackend{scale: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Register("epi", &fakeBackend{scale: -3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Register("pot", &fakeBackend{scale: 9}); !errors.Is(err, ErrDuplicateTenant) {
		t.Fatalf("duplicate Register returned %v, want ErrDuplicateTenant", err)
	}
	if got := f.Tenants(); len(got) != 2 || got[0] != "epi" || got[1] != "pot" {
		t.Fatalf("Tenants() = %v, want [epi pot]", got)
	}
	x := []float64{0.5, 0.25}
	r, err := f.query("pot", x)
	if err != nil || math.Abs(r.Y[0]-1.0) > 1e-15 {
		t.Fatalf("pot answered (%v, %v), want 1.0", r.Y, err)
	}
	r, err = f.query("epi", x)
	if err != nil || math.Abs(r.Y[0]-(-1.0)) > 1e-15 {
		t.Fatalf("epi answered (%v, %v), want -1.0", r.Y, err)
	}
	if _, err := f.query("ghost", x); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant returned %v, want ErrUnknownTenant", err)
	}
	st, err := f.TenantStats("pot")
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != 1 || st.Batches != 1 || st.Staleness != -1 {
		t.Fatalf("pot stats = %+v, want 1 query, 1 batch, staleness -1", st)
	}
}

// TestFleetAdmissionBound checks the bounded in-flight window sheds load
// with ErrOverloaded while admitted queries still complete.
func TestFleetAdmissionBound(t *testing.T) {
	fb := &fakeBackend{scale: 1, block: make(chan struct{})}
	fb.blockOn.Store(true)
	f := New(Config{MaxInFlight: 2})
	defer f.Close()
	if err := f.Register("hot", fb); err != nil {
		t.Fatal(err)
	}

	results := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(i int) {
			_, err := f.query("hot", []float64{float64(i), 0})
			results <- err
		}(g)
	}
	// Wait until the window is saturated and the overflow has been shed.
	deadline := time.After(10 * time.Second)
	var shed, admitted int
	for shed+admitted < 6 {
		select {
		case err := <-results:
			if errors.Is(err, ErrOverloaded) {
				shed++
			} else {
				t.Fatalf("pre-unblock completion: %v", err)
			}
		case <-deadline:
			t.Fatalf("admission never shed load: shed=%d", shed)
		}
	}
	fb.blockOn.Store(false)
	close(fb.block)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted query failed: %v", err)
		}
		admitted++
	}
	st, _ := f.TenantStats("hot")
	if st.Rejected != int64(shed) || shed == 0 {
		t.Fatalf("stats counted %d rejections, want %d > 0", st.Rejected, shed)
	}
}

// TestFleetPanicIsolation checks one tenant's panicking backend surfaces
// as that tenant's error while its neighbours (and the tenant itself, on
// healthy inputs) keep serving.
func TestFleetPanicIsolation(t *testing.T) {
	f := New(Config{})
	defer f.Close()
	if err := f.Register("bad", &fakeBackend{scale: 1, panicAt: 9}); err != nil {
		t.Fatal(err)
	}
	if err := f.Register("good", &fakeBackend{scale: 2}); err != nil {
		t.Fatal(err)
	}
	_, err := f.query("bad", []float64{9, 0})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("poisoned query returned %v, want contained panic error", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := f.query("good", []float64{1, 1}); err != nil {
			t.Fatalf("neighbour tenant failed after panic: %v", err)
		}
		if _, err := f.query("bad", []float64{1, 1}); err != nil {
			t.Fatalf("panicking tenant failed on healthy input: %v", err)
		}
	}
	st, _ := f.TenantStats("bad")
	if st.Panics != 1 {
		t.Fatalf("stats counted %d panics, want 1", st.Panics)
	}
}

// TestFleetStallIsolation checks a stalled tenant backend holds only its
// own callers: the other tenants' queries flow freely meanwhile.
func TestFleetStallIsolation(t *testing.T) {
	stuck := &fakeBackend{scale: 1, block: make(chan struct{})}
	stuck.blockOn.Store(true)
	f := New(Config{})
	defer f.Close()
	if err := f.Register("stuck", stuck); err != nil {
		t.Fatal(err)
	}
	if err := f.Register("live", &fakeBackend{scale: 2}); err != nil {
		t.Fatal(err)
	}
	stuckDone := make(chan error, 1)
	go func() {
		_, err := f.query("stuck", []float64{1, 1})
		stuckDone <- err
	}()
	for stuck.batches.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 200; i++ {
		if _, err := f.query("live", []float64{1, 1}); err != nil {
			t.Fatalf("live tenant blocked behind stuck tenant: %v", err)
		}
	}
	stuck.blockOn.Store(false)
	close(stuck.block)
	if err := <-stuckDone; err != nil {
		t.Fatalf("stalled query failed after unblock: %v", err)
	}
}

// TestFleetConcurrentDeregisterQuery is the close-path race test: client
// goroutines hammer three tenants while one tenant is concurrently
// deregistered, re-registered and finally the whole fleet is closed (run
// with -race). Queries must only ever succeed or fail with a lifecycle
// error — never hang, corrupt a result, or observe a foreign tenant's
// answer.
func TestFleetConcurrentDeregisterQuery(t *testing.T) {
	f := New(Config{})
	scales := map[string]float64{"a": 1, "b": -1, "c": 3}
	for name, s := range scales {
		if err := f.Register(name, &fakeBackend{scale: s, delay: 5 * time.Microsecond}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			names := []string{"a", "b", "c"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				name := names[rng.Intn(len(names))]
				x := []float64{rng.Range(-1, 1), rng.Range(-1, 1)}
				r, err := f.query(name, x)
				switch {
				case err == nil:
					want := scales[name]*x[0] + 2*x[1]
					if math.Abs(r.Y[0]-want) > 1e-15 {
						t.Errorf("tenant %s: got %g want %g (cross-tenant corruption?)", name, r.Y[0], want)
						return
					}
				case errors.Is(err, ErrUnknownTenant) || errors.Is(err, ErrClosed):
					// Lost a race against Deregister/Close: acceptable.
				default:
					t.Errorf("tenant %s: unexpected error %v", name, err)
					return
				}
			}
		}(uint64(0xf1ee7 + g))
	}
	// Churn tenant "b" while the clients run.
	for i := 0; i < 20; i++ {
		if err := f.Deregister("b"); err != nil {
			t.Errorf("deregister: %v", err)
		}
		time.Sleep(time.Millisecond)
		if err := f.Register("b", &fakeBackend{scale: -1, delay: 5 * time.Microsecond}); err != nil {
			t.Errorf("re-register: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	f.Close()
	close(stop)
	wg.Wait()
	if err := f.Register("late", &fakeBackend{scale: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Register returned %v, want ErrClosed", err)
	}
	if _, err := f.query("a", []float64{0, 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Query returned %v, want ErrClosed", err)
	}
}

// TestFleetQueryIntoZeroAlloc pins the acceptance bar for the fleet
// dispatch plane: the steady-state per-tenant query path — lookup,
// admission, coalesced QueryBatchInto dispatch, latency recording —
// performs zero heap allocations.
func TestFleetQueryIntoZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts under -race; alloc counts are meaningless")
	}
	f := New(Config{})
	defer f.Close()
	if err := f.Register("t0", &fakeBackend{scale: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Register("t1", &fakeBackend{scale: 2}); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.25, 0.5}
	y := make([]float64, 1)
	std := make([]float64, 1)
	for i := 0; i < 256; i++ { // warm pools, EWMA and row capacities
		if _, err := f.QueryInto("t0", x, y, std); err != nil {
			t.Fatal(err)
		}
		if _, err := f.QueryInto("t1", x, y, std); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(512, func() {
		if _, err := f.QueryInto("t0", x, y, std); err != nil {
			t.Fatal(err)
		}
		if _, err := f.QueryInto("t1", x, y, std); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state fleet QueryInto allocates %.2f per 2 queries, want 0", allocs)
	}
}

// stalenessBackend wraps fakeBackend with a canned per-shard status.
type stalenessBackend struct {
	fakeBackend
	stale []core.ShardStatus
}

func (s *stalenessBackend) Status() []core.ShardStatus { return s.stale }

// TestFleetStats checks the derived stats: QPS over the sampling window,
// mean batch width, latency percentiles and summed shard staleness.
func TestFleetStats(t *testing.T) {
	sb := &stalenessBackend{
		fakeBackend: fakeBackend{scale: 1},
		stale: []core.ShardStatus{
			{Samples: 100, Stale: 7}, {Samples: 50, Stale: 5},
		},
	}
	f := New(Config{})
	defer f.Close()
	if err := f.Register("s", sb); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := f.query("s", []float64{1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := f.TenantStats("s")
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != 50 {
		t.Fatalf("counted %d queries, want 50", st.Queries)
	}
	if st.QPS <= 0 {
		t.Fatalf("QPS = %g, want > 0 over the first sampling window", st.QPS)
	}
	if st.MeanBatch <= 0 {
		t.Fatalf("mean batch %g, want > 0", st.MeanBatch)
	}
	if st.P50 <= 0 || st.P99 < st.P50 {
		t.Fatalf("percentiles p50=%v p99=%v, want 0 < p50 <= p99", st.P50, st.P99)
	}
	if st.Staleness != 12 {
		t.Fatalf("staleness %d, want 12 (7+5 across shards)", st.Staleness)
	}
	all := f.Stats()
	if len(all) != 1 || all["s"].Queries != 50 {
		t.Fatalf("Stats() = %v, want the one tenant with 50 queries", all)
	}
}

// TestFleetStatsPercentileWindow: P50/P99 cover the bursts since the
// previous snapshot, as QPS does, so slow bursts a snapshot already
// reported do not linger in the next one.
func TestFleetStatsPercentileWindow(t *testing.T) {
	fb := &fakeBackend{scale: 1, delay: 5 * time.Millisecond}
	f := New(Config{})
	defer f.Close()
	if err := f.Register("w", fb); err != nil {
		t.Fatal(err)
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := f.query("w", []float64{1, 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(40)
	slow, err := f.TenantStats("w")
	if err != nil {
		t.Fatal(err)
	}
	if slow.P50 < 5*time.Millisecond {
		t.Fatalf("p50 over 5 ms bursts = %v", slow.P50)
	}
	fb.delay = 0 // the dispatcher read it before the last answer came back
	run(20)
	fast, _ := f.TenantStats("w")
	if fast.P50 >= 2500*time.Microsecond {
		t.Fatalf("p50 after 20 instant bursts = %v, want < 2.5 ms: the previous window's bursts leaked in", fast.P50)
	}
	if empty, _ := f.TenantStats("w"); empty.P50 != 0 || empty.P99 != 0 {
		t.Fatalf("p50/p99 over an empty window = %v/%v, want 0", empty.P50, empty.P99)
	}
}

// TestFleetTenantStatsZeroAlloc: a snapshot of a tenant with no status,
// quant or registry face allocates nothing.
func TestFleetTenantStatsZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are meaningless under -race")
	}
	f := New(Config{})
	defer f.Close()
	if err := f.Register("a", &fakeBackend{scale: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := f.query("a", []float64{1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(64, func() {
		if _, err := f.TenantStats("a"); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("TenantStats allocates %.1f times per call, want 0", allocs)
	}
}

// TestFleetAgainstWrapper serves a real UQ-gated wrapper tenant end to
// end through the fleet: coalesced answers must match the backend's own
// predictions.
func TestFleetAgainstWrapper(t *testing.T) {
	rng := xrand.New(0xf1e31)
	oracle := core.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{x[0]*x[0] - x[1]}, nil
	}}
	var sur *core.NNSurrogate // the one model Pretrain publishes
	factory := core.NewNNSurrogateFactory(2, 1, []int{16}, 0, rng.Split(), func(s *core.NNSurrogate) {
		s.Epochs = 40
		s.MCPasses = 4
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
	f := New(Config{})
	defer f.Close()
	if err := f.Register("w", w); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			crng := xrand.New(seed)
			for i := 0; i < 50; i++ {
				x := []float64{crng.Range(-1, 1), crng.Range(-1, 1)}
				r, err := f.query("w", x)
				if err != nil {
					t.Error(err)
					return
				}
				if r.Src != core.FromSurrogate {
					t.Error("fell back to simulation under a wide-open UQ gate")
					return
				}
				want := core.Predict(sur, x)
				if math.Abs(r.Y[0]-want[0]) > 1e-12 {
					t.Errorf("fleet answer %g differs from direct prediction %g", r.Y[0], want[0])
					return
				}
			}
		}(uint64(7000 + g))
	}
	wg.Wait()
}

// TestFleetQuantStats checks a quantized-serving backend's counters
// surface in the tenant snapshot, and that plain backends report zero.
func TestFleetQuantStats(t *testing.T) {
	rng := xrand.New(0xf1e32)
	oracle := core.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{x[0]*x[0] - x[1]}, nil
	}}
	factory := core.NewNNSurrogateFactory(2, 1, []int{16}, 0, rng.Split(), func(s *core.NNSurrogate) {
		s.Epochs = 40
		s.MCPasses = 4
	})
	w := core.NewShardedWrapper(oracle, factory, core.ShardedConfig{
		Shards: 1, MinTrainSamples: 10, UQThreshold: 100, Quantized: true,
	})
	design := tensor.NewMatrix(40, 2)
	for i := 0; i < design.Rows; i++ {
		design.Set(i, 0, rng.Range(-1, 1))
		design.Set(i, 1, rng.Range(-1, 1))
	}
	if err := w.Pretrain(design); err != nil {
		t.Fatal(err)
	}
	f := New(Config{})
	defer f.Close()
	if err := f.Register("q", w); err != nil {
		t.Fatal(err)
	}
	if err := f.Register("plain", &fakeBackend{scale: 1}); err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		x := []float64{rng.Range(-1, 1), rng.Range(-1, 1)}
		if _, err := f.query("q", x); err != nil {
			t.Fatal(err)
		}
		if _, err := f.query("plain", x); err != nil {
			t.Fatal(err)
		}
	}
	st, err := f.TenantStats("q")
	if err != nil {
		t.Fatal(err)
	}
	if st.QuantQueries != n {
		t.Fatalf("tenant q quant queries = %d, want %d", st.QuantQueries, n)
	}
	if st.QuantFallbacks != 0 {
		t.Fatalf("tenant q quant fallbacks = %d, want 0 under a wide-open gate", st.QuantFallbacks)
	}
	ps, err := f.TenantStats("plain")
	if err != nil {
		t.Fatal(err)
	}
	if ps.QuantQueries != 0 || ps.QuantFallbacks != 0 {
		t.Fatalf("plain tenant reported quant stats (%d, %d), want zeros", ps.QuantQueries, ps.QuantFallbacks)
	}
}

// TestFleetQueryCtxExpiredShedsBeforeBackend pins the deadline-admission
// contract: a request arriving already past its deadline is shed before
// it is enqueued — the backend never sees it, the Expired counter moves,
// Queries does not, and the error is context.DeadlineExceeded. QueryCtx
// is gone; QueryRows' per-row deadlines are the one deadline path.
func TestFleetQueryCtxExpiredShedsBeforeBackend(t *testing.T) {
	bk := &fakeBackend{scale: 3}
	f := New(Config{})
	defer f.Close()
	if err := f.Register("m", bk); err != nil {
		t.Fatal(err)
	}

	past := time.Now().Add(-time.Second).UnixNano()
	if err := f.QueryRows("m", [][]float64{{1, 1}, {2, 2}}, []int64{past, past}, func(i int, _ serve.Result, err error) {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("expired row %d returned %v, want DeadlineExceeded", i, err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if n := bk.batches.Load(); n != 0 {
		t.Fatalf("expired rows reached the backend (%d batches)", n)
	}
	st, err := f.TenantStats("m")
	if err != nil {
		t.Fatal(err)
	}
	if st.Expired != 2 {
		t.Fatalf("Expired = %d, want 2", st.Expired)
	}
	if st.Queries != 0 {
		t.Fatalf("shed queries counted as served: %d", st.Queries)
	}

	// A live query serves normally through the same path.
	y := make([]float64, 1)
	std := make([]float64, 1)
	res, err := f.QueryInto("m", []float64{1, 1}, y, std)
	if err != nil || math.Abs(res.Y[0]-5) > 1e-12 {
		t.Fatalf("live query: %v %v", res.Y, err)
	}
}

// TestFleetOverloadedError pins the typed-shed contract: the admission
// bound rejects with a *OverloadedError naming the tenant, and the value
// stays wrapping-compatible with the ErrOverloaded sentinel.
func TestFleetOverloadedError(t *testing.T) {
	bk := &fakeBackend{scale: 1, block: make(chan struct{})}
	bk.blockOn.Store(true)
	f := New(Config{MaxInFlight: 1, Coalescer: serve.Config{MaxBatch: 1}})
	defer f.Close()
	if err := f.Register("busy", bk); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() { // occupy the single admission slot
		defer close(done)
		f.query("busy", []float64{1, 1})
	}()
	// Wait until the occupier is admitted so the probe below cannot win
	// the slot itself and block in the backend.
	for start := time.Now(); ; {
		st, err := f.TenantStats("busy")
		if err != nil {
			t.Fatal(err)
		}
		if st.InFlight == 1 {
			break
		}
		if time.Since(start) > 2*time.Second {
			t.Fatal("occupier never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	_, shedErr := f.query("busy", []float64{1, 1})
	bk.blockOn.Store(false)
	close(bk.block)
	<-done
	if shedErr == nil {
		t.Fatal("probe query was admitted past a full window")
	}

	if !errors.Is(shedErr, ErrOverloaded) {
		t.Fatalf("errors.Is(%v, ErrOverloaded) = false", shedErr)
	}
	var oe *OverloadedError
	if !errors.As(shedErr, &oe) {
		t.Fatalf("errors.As(%v, *OverloadedError) = false", shedErr)
	}
	if oe.Tenant != "busy" {
		t.Fatalf("OverloadedError.Tenant = %q", oe.Tenant)
	}
	if !strings.Contains(oe.Error(), `"busy"`) {
		t.Fatalf("error text %q does not name the tenant", oe.Error())
	}
}

// driftStubBackend exposes a canned shard status, standing in for a
// ShardedWrapper with drifted shards.
type driftStubBackend struct {
	fakeBackend
	status []core.ShardStatus
}

func (d *driftStubBackend) Status() []core.ShardStatus { return d.status }

// TestFleetDriftStats pins the stats plumbing: TenantStats aggregates
// Drifted/DriftRatio from the backend's shard status so the serving plane
// can expose drift without touching core.
func TestFleetDriftStats(t *testing.T) {
	bk := &driftStubBackend{
		fakeBackend: fakeBackend{scale: 1},
		status: []core.ShardStatus{
			{Stale: 1, Drifted: false, DriftRatio: 0.4},
			{Stale: 2, Drifted: true, DriftRatio: 3.5},
			{Stale: 0, Drifted: true, DriftRatio: 2.1},
		},
	}
	f := New(Config{})
	defer f.Close()
	if err := f.Register("m", bk); err != nil {
		t.Fatal(err)
	}
	st, err := f.TenantStats("m")
	if err != nil {
		t.Fatal(err)
	}
	if st.DriftedShards != 2 {
		t.Fatalf("DriftedShards = %d, want 2", st.DriftedShards)
	}
	if st.MaxDriftRatio != 3.5 {
		t.Fatalf("MaxDriftRatio = %v, want 3.5", st.MaxDriftRatio)
	}
	if st.Staleness != 3 {
		t.Fatalf("Staleness = %d, want 3", st.Staleness)
	}
}
