package netserve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet"
)

// TestChaosSoak phases a live resilient-client load through every fault
// the injector knows — drops, truncated writes, corruption, latency,
// stalls, full partition, blackhole — on both sides of the wire, then
// clears the faults and asserts the three recovery invariants:
//
//  1. No silent drops: every issued query resolved with an answer or a
//     typed error. (The counters must add up; an unexpected error type
//     fails immediately.)
//  2. Bounded recovery: once faults clear, queries succeed again within
//     the reconnect-backoff bound.
//  3. No residue: goroutines return to baseline and every pooled server
//     buffer is recycled after teardown.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	base := runtime.NumGoroutine()

	inj := chaos.New(0xC4A05)
	bk := &testBackend{in: 2, out: 1}
	fl := fleet.New(fleet.Config{})
	if err := fl.Register("m", bk); err != nil {
		t.Fatal(err)
	}
	defer func(d time.Duration) { writeTimeout = d }(writeTimeout)
	writeTimeout = 200 * time.Millisecond
	srv := NewServer(Config{Fleet: fl})
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(inj.Listener(ln))

	rc, err := DialResilient(ln.Addr().String(), ResilientConfig{
		Conns:  2,
		Client: ClientConfig{Dialer: inj.Dialer(nil)},
	})
	if err != nil {
		t.Fatal(err)
	}

	var issued, okCount, typedErr atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y, std := make([]float64, 1), make([]float64, 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				issued.Add(1)
				_, qerr := rc.QueryInto("m", []float64{1, 2}, y, std, time.Now().Add(300*time.Millisecond))
				switch {
				case qerr == nil:
					okCount.Add(1)
				case errors.Is(qerr, ErrRetry), errors.Is(qerr, ErrExpired),
					errors.Is(qerr, ErrConnLost), errors.Is(qerr, ErrNoConn),
					errors.Is(qerr, ErrClientClosed),
					// A corrupted tenant byte in a request that still
					// frame-parses is served as unknown-tenant — typed,
					// not a silent drop.
					errors.Is(qerr, ErrUnknownTenant):
					typedErr.Add(1)
				default:
					var re *RemoteError
					if errors.As(qerr, &re) {
						// Corrupted request bytes that still frame-parse
						// surface as server-side errors; that is the typed
						// contract working, not a silent drop.
						typedErr.Add(1)
						continue
					}
					t.Errorf("untyped query error under chaos: %v", qerr)
					return
				}
			}
		}()
	}

	// Fault phases. Each runs against live load for a slice of real time.
	phase := func(name string, arm func(), d time.Duration) {
		t.Logf("phase %s", name)
		arm()
		time.Sleep(d)
	}
	phase("drop 5%", func() { inj.SetDropRate(0.05) }, 150*time.Millisecond)
	phase("partial writes", func() { inj.Clear(); inj.SetPartialRate(0.05) }, 150*time.Millisecond)
	phase("corruption", func() { inj.Clear(); inj.SetCorruptRate(0.05) }, 150*time.Millisecond)
	phase("latency 2ms", func() { inj.Clear(); inj.SetDelay(2 * time.Millisecond) }, 150*time.Millisecond)
	phase("stall", func() { inj.Clear(); inj.SetStalled(true) }, 150*time.Millisecond)
	phase("partition", func() { inj.SetStalled(false); inj.KillAll() }, 100*time.Millisecond)
	phase("blackhole", func() { inj.SetBlackhole(true) }, 200*time.Millisecond)
	inj.Clear()

	// Invariant 2: bounded recovery. The reconnect ladder caps at 1s, so
	// within 3s of a clean network queries must flow again.
	recovered := false
	recoverBy := time.Now().Add(3 * time.Second)
	y, std := make([]float64, 1), make([]float64, 1)
	for time.Now().Before(recoverBy) {
		if _, qerr := rc.QueryInto("m", []float64{1, 2}, y, std, time.Now().Add(300*time.Millisecond)); qerr == nil {
			recovered = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !recovered {
		t.Errorf("no successful query within 3s of faults clearing; stats %+v, injector %+v",
			rc.Stats(), inj.Stats())
	}

	close(stop)
	wg.Wait()
	rc.Close()
	srv.Close()
	fl.Close()

	// Invariant 1: the books balance — every issued query resolved.
	if got := okCount.Load() + typedErr.Load(); got != issued.Load() {
		t.Errorf("silent drops: issued %d, resolved %d", issued.Load(), got)
	}
	if okCount.Load() == 0 {
		t.Error("no query ever succeeded under chaos")
	}
	t.Logf("issued=%d ok=%d typed-errors=%d client=%+v injector=%+v server=%+v",
		issued.Load(), okCount.Load(), typedErr.Load(), rc.Stats(), inj.Stats(), srv.Stats())

	// Invariant 3: no residue.
	if reqs, bursts := srv.poolBalance(); reqs != 0 || bursts != 0 {
		t.Errorf("pooled state leaked: %d request contexts, %d bursts outstanding", reqs, bursts)
	}
	waitGoroutines(t, base, 2)
}
