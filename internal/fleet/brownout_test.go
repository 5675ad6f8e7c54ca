package fleet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
)

// degradableBackend is a serve.Backend that also implements the
// degradable face: slow while at level 0, fast once browned out — the
// shape of a backend whose ladder rungs genuinely cost less.
type degradableBackend struct {
	level atomic.Int32
}

func (b *degradableBackend) Dims() (int, int) { return 2, 1 }

func (b *degradableBackend) SetBrownoutLevel(level int) { b.level.Store(int32(level)) }

func (b *degradableBackend) BrownoutLevel() int { return int(b.level.Load()) }

func (b *degradableBackend) QueryBatchInto(xs *tensor.Matrix, res []core.BatchResult) error {
	if b.level.Load() == 0 {
		time.Sleep(5 * time.Millisecond) // breaches the 1ms SLO
	}
	for i := 0; i < xs.Rows; i++ {
		res[i] = core.BatchResult{Y: []float64{1}, Src: core.FromSurrogate}
	}
	return nil
}

// withBrownoutInterval runs the brownout controller at d for the rest of
// the test.
func withBrownoutInterval(t *testing.T, d time.Duration) {
	old := brownoutInterval
	brownoutInterval = d
	t.Cleanup(func() { brownoutInterval = old })
}

// TestBrownoutControllerStepsDownAndRecovers drives a latency-SLO breach
// through the controller and asserts the full arc: step down under
// sustained breach, stats exposing level and transition counters, and
// step back up once the tenant holds healthy.
func TestBrownoutControllerStepsDownAndRecovers(t *testing.T) {
	withBrownoutInterval(t, 10*time.Millisecond)
	bk := &degradableBackend{}
	f := New(Config{
		Brownout: BrownoutConfig{P99SLO: time.Millisecond},
	})
	defer f.Close()
	if err := f.Register("m", bk); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			f.Query("m", []float64{1, 2})
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	waitFor := func(cond func(TenantStats) bool, what string) TenantStats {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st, ok := f.Stats()["m"]
			if ok && cond(st) {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s; last stats %+v", what, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Sustained 5ms p99 against a 1ms SLO: the controller must step down.
	st := waitFor(func(st TenantStats) bool { return st.BrownoutLevel >= 1 }, "step down")
	if st.BrownoutDowns == 0 {
		t.Fatalf("level %d with zero down-transitions counted: %+v", st.BrownoutLevel, st)
	}
	if bk.BrownoutLevel() == 0 {
		t.Fatal("controller stepped down without driving the backend")
	}

	// Browned out, the backend is fast again; once the slow samples age
	// out of the latency ring the controller must walk back to level 0.
	st = waitFor(func(st TenantStats) bool { return st.BrownoutLevel == 0 && st.BrownoutUps > 0 }, "recovery")
	if st.BrownoutUps == 0 {
		t.Fatalf("recovered with zero up-transitions counted: %+v", st)
	}
	if bk.BrownoutLevel() != 0 {
		t.Fatalf("backend still at level %d after recovery", bk.BrownoutLevel())
	}
}

// TestBrownoutShedSignal breaches via shed rate instead of latency: a
// one-query admission window under concurrent load rejects most arrivals,
// and the controller steps the tenant down on the rejection fraction
// alone (no latency SLO configured).
func TestBrownoutShedSignal(t *testing.T) {
	withBrownoutInterval(t, 10*time.Millisecond)
	bk := &degradableBackend{}
	f := New(Config{
		MaxInFlight: 1,
		Brownout:    BrownoutConfig{MaxShedRate: 0.25},
	})
	defer f.Close()
	if err := f.Register("m", bk); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				f.Query("m", []float64{1, 2}) // most are shed at the window
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := f.Stats()["m"]
		if st.BrownoutLevel >= 1 && st.Rejected > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shed-rate signal never stepped the tenant down; stats %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBrownoutIgnoresNonDegradable asserts the controller leaves backends
// that don't expose the ladder untouched rather than erroring or leaking
// window state.
func TestBrownoutIgnoresNonDegradable(t *testing.T) {
	withBrownoutInterval(t, 5*time.Millisecond)
	f := New(Config{
		Brownout: BrownoutConfig{P99SLO: time.Microsecond},
	})
	defer f.Close()
	bk := &plainBackend{}
	if err := f.Register("m", bk); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := f.Query("m", []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if st := f.Stats()["m"]; st.BrownoutLevel != 0 || st.BrownoutDowns != 0 {
		t.Fatalf("non-degradable backend browned out: %+v", st)
	}
}

// plainBackend is a minimal serve.Backend without the degradable face.
type plainBackend struct{}

func (b *plainBackend) Dims() (int, int) { return 2, 1 }

func (b *plainBackend) QueryBatchInto(xs *tensor.Matrix, res []core.BatchResult) error {
	time.Sleep(100 * time.Microsecond) // far over the 1µs SLO
	for i := 0; i < xs.Rows; i++ {
		res[i] = core.BatchResult{Y: []float64{1}, Src: core.FromSurrogate}
	}
	return nil
}
