package netserve

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/serve"
)

func TestResilientRoundTrip(t *testing.T) {
	bk := &testBackend{in: 3, out: 2}
	_, _, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	rc, err := DialResilient(addr, ResilientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	y, std := make([]float64, 2), make([]float64, 2)
	for i := 0; i < 200; i++ {
		x := []float64{float64(i), 0.5, -0.25}
		res, err := rc.QueryInto("m", x, y, std, time.Time{})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want := float64(i) + 0.5 - 0.25
		if res.Y[0] != want || res.Y[1] != want+1 {
			t.Fatalf("query %d: got %v, want [%v %v]", i, res.Y, want, want+1)
		}
	}
	st := rc.Stats()
	if st.Live != st.Conns {
		t.Fatalf("healthy pool not fully live: %+v", st)
	}
}

// TestResilientReconnect severs every pooled connection mid-load and
// asserts the client retries onto repaired connections without surfacing
// a transport error to steady callers for long.
func TestResilientReconnect(t *testing.T) {
	inj := chaos.New(3)
	bk := &testBackend{in: 2, out: 1}
	_, _, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	rc, err := DialResilient(addr, ResilientConfig{
		Conns:  2,
		Client: ClientConfig{Dialer: inj.Dialer(nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	y, std := make([]float64, 1), make([]float64, 1)
	query := func() error {
		_, qerr := rc.QueryInto("m", []float64{1, 2}, y, std, time.Time{})
		return qerr
	}
	if err := query(); err != nil {
		t.Fatalf("healthy query: %v", err)
	}

	inj.KillAll()
	// Every query must still resolve; transient ErrNoConn/ErrConnLost are
	// the only acceptable failures, and success must return within the
	// reconnect bound.
	deadline := time.Now().Add(3 * time.Second)
	for {
		err := query()
		if err == nil {
			break
		}
		if !errors.Is(err, ErrNoConn) && !errors.Is(err, ErrConnLost) {
			t.Fatalf("unexpected error during reconnect: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("no recovery within 3s of KillAll")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := rc.Stats(); st.Reconnects == 0 {
		t.Fatalf("recovered without reconnecting? %+v", st)
	}
}

// TestResilientRetriesOverload drives a 1-in-flight fleet hard enough to
// draw ErrRetry sheds and asserts the retry budget absorbs them.
func TestResilientRetriesOverload(t *testing.T) {
	bk := &testBackend{in: 2, out: 1, delay: 2 * time.Millisecond}
	_, _, addr := newTestServer(t,
		fleet.Config{MaxInFlight: 1, Coalescer: serve.Config{MaxBatch: 1}},
		Config{}, map[string]serve.Backend{"m": bk})
	rc, err := DialResilient(addr, ResilientConfig{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			y, std := make([]float64, 1), make([]float64, 1)
			var last error
			for j := 0; j < 16; j++ {
				if _, last = rc.QueryInto("m", []float64{1, 2}, y, std, time.Time{}); last != nil {
					break
				}
			}
			done <- last
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil && !errors.Is(err, ErrRetry) {
			t.Fatalf("worker failed: %v", err)
		}
	}
}

// TestResilientBreaker trips a tenant's breaker on a hard-failing tenant,
// asserts shedding, then registers the tenant and asserts the half-open
// probe closes the breaker again. Window, minimum and trip rate are the
// production ones; only the cooldown is shortened.
func TestResilientBreaker(t *testing.T) {
	defer func(d time.Duration) { breakerCooldown = d }(breakerCooldown)
	breakerCooldown = 50 * time.Millisecond
	bk := &testBackend{in: 2, out: 1}
	fl, _, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	rc, err := DialResilient(addr, ResilientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	y, std := make([]float64, 1), make([]float64, 1)
	query := func() error {
		_, qerr := rc.QueryInto("ghost", []float64{1, 2}, y, std, time.Time{})
		return qerr
	}
	// Unknown tenant is a definitive failure: the window fills and trips
	// at the 16-sample minimum.
	fails := 0
	for ; fails < 64; fails++ {
		err := query()
		if errors.Is(err, ErrCircuitOpen) {
			break
		}
		if !errors.Is(err, ErrUnknownTenant) {
			t.Fatalf("want unknown-tenant, got %v", err)
		}
	}
	if fails != 16 {
		t.Fatalf("breaker opened after %d failures on a 100%% failing tenant, want 16", fails)
	}
	var coe *CircuitOpenError
	if err := query(); !errors.As(err, &coe) || coe.Tenant != "ghost" {
		t.Fatalf("open breaker returned %v, want CircuitOpenError{ghost}", err)
	}
	shed := rc.Stats().BreakerShed
	if shed == 0 {
		t.Fatal("breaker sheds not counted")
	}

	// A mixed tenant: after its first failure every outcome counts. 7
	// failures in 16 samples and 8 in 17 stay under the 0.5 trip rate; the
	// 9th failure, at 18 samples, reaches it.
	seq := []bool{true, false, false, false, false, false, false, false, false, false,
		true, true, true, true, true, true, true, true}
	for i, fail := range seq {
		x0 := 1.0
		if fail {
			x0 = poisonErr
		}
		_, err := rc.QueryInto("m", []float64{x0, 2}, y, std, time.Time{})
		var re *RemoteError
		if fail && !errors.As(err, &re) || !fail && err != nil {
			t.Fatalf("mixed query %d (fail=%v): got %v", i, fail, err)
		}
	}
	if _, err := rc.QueryInto("m", []float64{1, 2}, y, std, time.Time{}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("9 failures in 18 samples: got %v, want the breaker open", err)
	}

	// Heal the tenant; after the cooldown one probe goes through,
	// succeeds, and closes the breaker.
	if err := fl.Register("ghost", &testBackend{in: 2, out: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if err := query(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after tenant healed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Closed again: consecutive queries flow with no sheds.
	before := rc.Stats().BreakerShed
	for i := 0; i < 32; i++ {
		if err := query(); err != nil {
			t.Fatalf("query after breaker close: %v", err)
		}
	}
	if after := rc.Stats().BreakerShed; after != before {
		t.Fatalf("breaker still shedding after close: %d → %d", before, after)
	}
}

// oneGenStore is an ArtifactStore holding generation 3 of every key.
type oneGenStore struct{}

func (oneGenStore) FetchArtifact(string, uint64) ([]byte, uint64, bool, error) {
	return []byte("weights"), 3, true, nil
}
func (oneGenStore) StatArtifact(string) (uint64, bool) { return 3, true }

// TestResilientArtifactCallBounded blackholes a pooled connection — open,
// silent, no transport error ever — and asserts an artifact call through
// the pool's retry ladder gives up at the stall timeout with a
// connection-lost error (without the stall watch it would wait forever),
// and that the condemned connection is replaced once the path heals.
func TestResilientArtifactCallBounded(t *testing.T) {
	defer func(d time.Duration) { stallTimeout = d }(stallTimeout)
	stallTimeout = 100 * time.Millisecond
	inj := chaos.New(7)
	_, _, addr := newTestServer(t, fleet.Config{}, Config{Artifacts: oneGenStore{}}, nil)
	rc, err := DialResilient(addr, ResilientConfig{
		Conns:  1,
		Client: ClientConfig{Dialer: inj.Dialer(nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	fetch := func() (data []byte, gen uint64, ok bool, err error) {
		err = rc.attempts(time.Time{}, func(cn *Conn) (e error) {
			data, gen, ok, e = cn.FetchArtifact("k/shard-0", 0)
			return e
		})
		return data, gen, ok, err
	}
	if _, gen, ok, err := fetch(); err != nil || !ok || gen != 3 {
		t.Fatalf("healthy fetch: gen %d ok %v err %v", gen, ok, err)
	}

	inj.SetBlackhole(true)
	done := make(chan error, 1)
	go func() {
		_, _, _, err := fetch()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConnLost) {
			t.Fatalf("blackholed fetch returned %v, want an ErrConnLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("artifact call on a blackholed connection never returned")
	}

	inj.SetBlackhole(false)
	deadline := time.Now().Add(3 * time.Second)
	for {
		data, gen, ok, err := fetch()
		if err == nil {
			if !ok || gen != 3 || string(data) != "weights" {
				t.Fatalf("healed fetch: %q gen %d ok %v", data, gen, ok)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no recovery within 3s of the path healing: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := rc.Stats(); st.Reconnects == 0 {
		t.Fatalf("recovered without replacing the condemned connection: %+v", st)
	}
}

// TestResilientDeadlineBound asserts the retry loop refuses to sleep past
// the caller's deadline: with the pool's only connection killed, a query
// whose deadline falls inside the first backoff returns the first
// attempt's transport error at once. A ladder that slept and retried
// would answer from the repaired connection with ErrExpired (or find no
// connection yet) instead.
func TestResilientDeadlineBound(t *testing.T) {
	bk := &testBackend{in: 2, out: 1}
	_, _, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	inj := chaos.New(5)
	rc, err := DialResilient(addr, ResilientConfig{
		Conns:  1,
		Client: ClientConfig{Dialer: inj.Dialer(nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	inj.KillAll()
	y, std := make([]float64, 1), make([]float64, 1)
	start := time.Now()
	// The first backoff sleeps at least retryBackoff/2.
	_, qerr := rc.QueryInto("m", []float64{1, 2}, y, std, start.Add(retryBackoff/2))
	if qerr == nil {
		t.Fatal("query through a killed connection succeeded")
	}
	if !errors.Is(qerr, ErrConnLost) {
		t.Fatalf("deadline-bounded retry returned %v, want the first attempt's ErrConnLost", qerr)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("deadline-bounded retry took %v, want well under the backoff ladder", el)
	}
}

// TestResilientRetryKeepsConnLost: a query whose attempt reached a
// connection and lost it reports that loss, not ErrNoConn, when its
// retries then find no live connection. The dialer succeeds once and
// refuses every redial, so the retries always find the slot empty.
func TestResilientRetryKeepsConnLost(t *testing.T) {
	bk := &testBackend{in: 2, out: 1}
	_, _, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	inj := chaos.New(9)
	var dialed atomic.Bool
	rc, err := DialResilient(addr, ResilientConfig{
		Conns: 1,
		Client: ClientConfig{Dialer: inj.Dialer(func(addr string, timeout time.Duration) (net.Conn, error) {
			if dialed.Swap(true) {
				return nil, errors.New("redial refused")
			}
			return net.DialTimeout("tcp", addr, timeout)
		})},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	inj.KillAll()
	_, qerr := rc.QueryInto("m", []float64{1, 2}, make([]float64, 1), nil, time.Time{})
	if !errors.Is(qerr, ErrConnLost) {
		t.Fatalf("query through a lost, unrepairable connection returned %v, want its ErrConnLost", qerr)
	}
	if st := rc.Stats(); st.Retries != maxAttempts-1 || st.Live != 0 {
		t.Fatalf("%+v: want %d retries and no live connection", st, maxAttempts-1)
	}
}

// TestResilientSteadyStateAllocs mirrors TestWireSteadyStateAllocs for
// the hardened client: the healthy-path overhead is bookkeeping only.
func TestResilientSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool puts; alloc counts are meaningless")
	}
	bk := &testBackend{in: 2, out: 1}
	_, _, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	rc, err := DialResilient(addr, ResilientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	x := []float64{0.25, -0.5}
	y, std := make([]float64, 1), make([]float64, 1)
	for i := 0; i < 512; i++ {
		if _, err := rc.QueryInto("m", x, y, std, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(2000, func() {
		if _, err := rc.QueryInto("m", x, y, std, time.Time{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1.0 {
		t.Fatalf("steady-state resilient query allocates %.2f objects/op, want ≈ 0", avg)
	}
}
