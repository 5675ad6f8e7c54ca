package fleet

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/surrogatetest"
)

// TestFleetQueryRowsDeadlineShed checks per-row deadlines inside one
// burst: expired rows are shed with context.DeadlineExceeded before the
// backend sees them, live rows are served, and the tenant's Expired
// counter moves.
func TestFleetQueryRowsDeadlineShed(t *testing.T) {
	f := New(Config{})
	defer f.Close()
	bk := &fakeBackend{scale: 1}
	if err := f.Register("a", bk); err != nil {
		t.Fatal(err)
	}

	rows := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	dls := []int64{
		0,                                       // none
		time.Now().Add(-time.Second).UnixNano(), // long expired
		time.Now().Add(time.Minute).UnixNano(),  // comfortably live
	}
	errs := make([]error, 3)
	ys := make([]float64, 3)
	if err := f.QueryRows("a", rows, dls, func(i int, res serve.Result, err error) {
		errs[i] = err
		if err == nil {
			ys[i] = res.Y[0]
		}
	}); err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("live rows failed: %v / %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], context.DeadlineExceeded) {
		t.Fatalf("expired row got %v", errs[1])
	}
	if ys[0] != 3 || ys[2] != 9 {
		t.Fatalf("live answers: %v %v", ys[0], ys[2])
	}
	st, err := f.TenantStats("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", st.Expired)
	}
	if st.Queries != 2 {
		t.Fatalf("Queries = %d, want 2 (shed row must not count)", st.Queries)
	}
}

// TestFleetQueryRowsAdmissionShed checks a burst larger than the tenant's
// in-flight window sheds exactly the overflow tail with OverloadedError —
// deterministically, with no concurrent occupier needed.
func TestFleetQueryRowsAdmissionShed(t *testing.T) {
	f := New(Config{MaxInFlight: 2})
	defer f.Close()
	if err := f.Register("a", &fakeBackend{scale: 1}); err != nil {
		t.Fatal(err)
	}

	rows := [][]float64{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	errs := make([]error, 4)
	if err := f.QueryRows("a", rows, nil, func(i int, res serve.Result, err error) {
		errs[i] = err
	}); err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("admitted rows failed: %v / %v", errs[0], errs[1])
	}
	for i := 2; i < 4; i++ {
		if !errors.Is(errs[i], ErrOverloaded) {
			t.Fatalf("overflow row %d got %v", i, errs[i])
		}
		var oe *OverloadedError
		if !errors.As(errs[i], &oe) || oe.Tenant != "a" {
			t.Fatalf("overflow row %d lacks typed tenant: %v", i, errs[i])
		}
	}
	st, _ := f.TenantStats("a")
	if st.Rejected != 2 {
		t.Fatalf("Rejected = %d, want 2", st.Rejected)
	}
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d after burst, want 0", st.InFlight)
	}
}

// TestFleetQueryRowsPanicContainment checks a backend panic mid-burst is
// converted into per-row errors for every undelivered row, the panic
// counter moves, and the tenant keeps serving.
func TestFleetQueryRowsPanicContainment(t *testing.T) {
	f := New(Config{})
	defer f.Close()
	bk := &fakeBackend{scale: 1, panicAt: 7}
	if err := f.Register("a", bk); err != nil {
		t.Fatal(err)
	}

	rows := [][]float64{{7, 0}, {1, 1}}
	errs := make([]error, 2)
	if err := f.QueryRows("a", rows, nil, func(i int, res serve.Result, err error) {
		errs[i] = err
	}); err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e == nil {
			t.Fatalf("row %d of panicked burst succeeded", i)
		}
	}
	st, _ := f.TenantStats("a")
	if st.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", st.Panics)
	}
	if st.InFlight != 0 {
		t.Fatalf("InFlight = %d after panic, want 0", st.InFlight)
	}
	// Still serving.
	if r, err := f.query("a", []float64{1, 1}); err != nil || r.Y[0] != 3 {
		t.Fatalf("post-panic query: %v %v", r, err)
	}
}

// TestFleetQueryRowsErrors checks whole-burst rejections: unknown
// tenants, closed fleets and malformed deadline slices.
func TestFleetQueryRowsErrors(t *testing.T) {
	f := New(Config{})
	boom := func(int, serve.Result, error) { t.Error("callback ran") }
	if err := f.QueryRows("nope", [][]float64{{1, 2}}, nil, boom); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant: %v", err)
	}
	if err := f.Register("a", &fakeBackend{scale: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.QueryRows("a", [][]float64{{1, 2}}, []int64{1, 2}, boom); err == nil {
		t.Fatal("mismatched deadline slice accepted")
	}
	f.Close()
	if err := f.QueryRows("a", [][]float64{{1, 2}}, nil, boom); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed fleet: %v", err)
	}
}

// TestFleetOracleWrongLengthKeepsServing: a tenant wrapper whose oracle
// answers with the wrong length fails that query, and the tenant's stats
// and its next query still return. The contained backend panic this used
// to be left the shard lock held, so TenantStats (/statsz), every later
// fallback and every refit blocked forever.
func TestFleetOracleWrongLengthKeepsServing(t *testing.T) {
	oracle := core.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		if x[0] > 0 {
			return []float64{x[0], x[0]}, nil // one value too many
		}
		return []float64{x[0]}, nil
	}}
	w := core.NewShardedWrapper(oracle, func() core.Surrogate { return surrogatetest.Mean(0) }, core.ShardedConfig{
		Shards: 1, MinTrainSamples: 1 << 30,
	})
	f := New(Config{})
	defer f.Close()
	if err := f.Register("w", w); err != nil {
		t.Fatal(err)
	}
	within := func(what string, call func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			call()
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("%s blocked for 1 s: the tenant's shard is wedged", what)
		}
	}
	within("the bad query", func() {
		if r, err := f.query("w", []float64{1, 0}); err == nil {
			t.Errorf("wrong-length answer %v served", r.Y)
		}
	})
	within("TenantStats", func() {
		if st, err := f.TenantStats("w"); err != nil || st.Panics != 0 {
			t.Errorf("stats = %+v (err %v), want no contained panic", st, err)
		}
	})
	within("the next query", func() {
		if r, err := f.query("w", []float64{-1, 0}); err != nil || r.Y[0] != -1 {
			t.Errorf("next query = (%v, %v), want the oracle's -1", r.Y, err)
		}
	})
}
