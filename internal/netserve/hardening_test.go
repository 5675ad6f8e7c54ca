package netserve

import (
	"errors"
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/serve"
)

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func dialLoopback(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// TestWriteStallWatchdog wedges the server's write path with an injected
// stall and asserts the WriteTimeout watchdog fires: the stall is
// counted, the connection dies, and the in-flight query resolves instead
// of hanging.
func TestWriteStallWatchdog(t *testing.T) {
	inj := chaos.New(1)
	bk := &testBackend{in: 2, out: 1}
	fl := fleet.New(fleet.Config{})
	if err := fl.Register("m", bk); err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	srv := NewServer(Config{Fleet: fl, WriteTimeout: 100 * time.Millisecond})
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(inj.Listener(ln))
	defer srv.Close()

	cl, err := dial(ln.Addr().String(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	y, std := make([]float64, 1), make([]float64, 1)
	if _, err := cl.QueryInto("m", []float64{1, 2}, y, std, time.Time{}); err != nil {
		t.Fatalf("healthy query: %v", err)
	}

	inj.SetStalled(true)
	done := make(chan error, 1)
	go func() {
		_, qerr := cl.QueryInto("m", []float64{1, 2}, y, std, time.Now().Add(time.Second))
		done <- qerr
	}()
	deadline := time.Now().Add(3 * time.Second)
	for srv.Stats().WriteStalls == 0 {
		if time.Now().After(deadline) {
			t.Fatal("write stall never detected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	inj.SetStalled(false)
	select {
	case qerr := <-done:
		if qerr == nil {
			t.Fatal("query through a watchdog-killed connection succeeded")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("in-flight query hung past the watchdog kill")
	}
}

// TestReadTimeoutReapsSilentConn asserts an opted-in ReadTimeout tears
// down a connection that dials and then never speaks.
func TestReadTimeoutReapsSilentConn(t *testing.T) {
	bk := &testBackend{in: 2, out: 1}
	_, srv, addr := newTestServer(t, fleet.Config{},
		Config{ReadTimeout: 50 * time.Millisecond}, map[string]serve.Backend{"m": bk})
	c, err := dialLoopback(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(3 * time.Second)
	for srv.Stats().Open != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("silent connection still open after read timeout; open=%d", srv.Stats().Open)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReadyzDrainOrdering asserts the drain contract: BeginDrain flips
// /readyz to 503 while the wire plane still answers, and only Close stops
// service.
func TestReadyzDrainOrdering(t *testing.T) {
	bk := &testBackend{in: 2, out: 1}
	fl, srv, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	cl, err := dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	h := &Health{Fleet: fl, Server: srv}

	probe := func() (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		return rec.Code, rec.Body.String()
	}
	if code, _ := probe(); code != 200 {
		t.Fatalf("ready before drain: got %d", code)
	}

	srv.BeginDrain()
	code, body := probe()
	if code != 503 || !strings.Contains(body, "draining") {
		t.Fatalf("after BeginDrain: got %d %q, want 503 draining", code, body)
	}
	// The wire plane must still answer: not-ready precedes, never
	// replaces, the drain of in-flight work.
	y, std := make([]float64, 1), make([]float64, 1)
	for i := 0; i < 32; i++ {
		if _, err := cl.QueryInto("m", []float64{1, 2}, y, std, time.Time{}); err != nil {
			t.Fatalf("query during drain window: %v", err)
		}
	}
	srv.Close()
	if code, _ := probe(); code != 503 {
		t.Fatalf("after Close: got %d, want 503", code)
	}
}

// waitGoroutines polls until the goroutine count returns to at most base
// plus slack.
func waitGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: base %d, now %d\n%s",
				base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
		runtime.GC()
	}
}

// TestCloseUnderLoadLeaksNothing closes clients and server while queries
// are in flight and asserts every goroutine exits and every pooled buffer
// is recycled.
func TestCloseUnderLoadLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	bk := &testBackend{in: 2, out: 1, delay: 200 * time.Microsecond}
	fl := fleet.New(fleet.Config{})
	if err := fl.Register("m", bk); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Fleet: fl})
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	plain, err := dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DialResilient(addr, ResilientConfig{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			y, std := make([]float64, 1), make([]float64, 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				var qerr error
				if i%2 == 0 {
					_, qerr = plain.QueryInto("m", []float64{1, 2}, y, std, time.Time{})
				} else {
					_, qerr = res.QueryInto("m", []float64{1, 2}, y, std, time.Time{})
				}
				if qerr != nil {
					// Shutdown raced the query: the only acceptable
					// failures are the typed teardown errors.
					if !errors.Is(qerr, ErrClientClosed) && !errors.Is(qerr, ErrConnLost) &&
						!errors.Is(qerr, ErrNoConn) {
						t.Errorf("query failed with untyped error: %v", qerr)
					}
					return
				}
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let load establish
	plain.Close()
	res.Close()
	close(stop)
	wg.Wait()
	srv.Close()
	fl.Close()

	if reqs, bursts := srv.poolBalance(); reqs != 0 || bursts != 0 {
		t.Fatalf("pooled state leaked: %d request contexts, %d bursts outstanding", reqs, bursts)
	}
	waitGoroutines(t, base, 2)
}
