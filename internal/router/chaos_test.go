package router

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/netserve"
	"repro/internal/registry"
)

// TestChaosPartitionFailover partitions the router from the worker that
// owns a tenant, mid-load, and pins the outage contract:
//
//   - every request issued during the partition answers ok or with a
//     typed error (ok + typed == issued — nothing silently dropped);
//   - the tenant rehashes onto the surviving worker and warm-starts from
//     the router's mirrored artifacts (zero oracle runs on the survivor);
//   - after the storm, remap pools balance and goroutines return to
//     baseline.
func TestChaosPartitionFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker stacks under fault injection")
	}
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	w1 := startWorker(t, filepath.Join(dir, "w1"), 1)
	w2 := startWorker(t, filepath.Join(dir, "w2"), 2)
	workers := map[string]*testWorker{w1.addr: w1, w2.addr: w2}

	// Partitionable transport: router→worker dials and live connections
	// to the victim address fail while the partition holds.
	inj := chaos.New(7)
	var parted atomic.Value
	parted.Store("")
	dialer := func(addr string, timeout time.Duration) (net.Conn, error) {
		if parted.Load().(string) == addr {
			return nil, fmt.Errorf("chaos: %s unreachable", addr)
		}
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		return inj.Wrap(c), nil
	}

	mirror, err := registry.Open(registry.Config{Dir: filepath.Join(dir, "mirror")})
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Close()
	rt, err := New(Config{
		Workers:  []string{w1.addr, w2.addr},
		Registry: mirror,
		Tenants:  []string{"pot"},
		Dialer:   dialer,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.Serve(ln)
	rc := dialRouter(t, ln.Addr().String())
	defer rc.Close()

	// Steady state first: tenant serving, mirror holding its model — the
	// failover must have an artifact to warm-start from.
	y, std := make([]float64, 1), make([]float64, 1)
	waitServe := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if _, qerr := rc.QueryInto("pot", []float64{0.1, 0.1}, y, std, time.Now().Add(time.Second)); qerr == nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("tenant pot never served; router %+v", rt.Stats())
	}
	waitServe()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if g, ok := mirror.CurrentGeneration(registry.ShardKey("pot", 0)); ok && g >= 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g, ok := mirror.CurrentGeneration(registry.ShardKey("pot", 0)); !ok || g < 1 {
		t.Fatalf("mirror never replayed pot (gen %d ok=%v)", g, ok)
	}

	owner := rt.Placements()["pot"]
	victim, survivor := workers[owner], w1
	if victim == nil {
		t.Fatalf("tenant pot placed at unknown address %q", owner)
	}
	if victim == w1 {
		survivor = w2
	}
	survivorRunsBefore := survivor.oracle.runs.Load()

	// Load through the partition. The client↔router link stays healthy,
	// so every answer is a frame: ok or a typed status.
	var issued, okCount, typedErr atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			yy, ss := make([]float64, 1), make([]float64, 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				issued.Add(1)
				_, qerr := rc.QueryInto("pot", []float64{0.2, -0.1}, yy, ss, time.Now().Add(300*time.Millisecond))
				switch {
				case qerr == nil:
					okCount.Add(1)
				case errors.Is(qerr, netserve.ErrRetry), errors.Is(qerr, netserve.ErrExpired),
					errors.Is(qerr, netserve.ErrConnLost), errors.Is(qerr, netserve.ErrNoConn),
					errors.Is(qerr, netserve.ErrClientClosed), errors.Is(qerr, netserve.ErrUnknownTenant):
					typedErr.Add(1)
				default:
					var re *netserve.RemoteError
					if errors.As(qerr, &re) {
						typedErr.Add(1)
						continue
					}
					t.Errorf("untyped query error under partition: %v", qerr)
					return
				}
			}
		}()
	}

	time.Sleep(50 * time.Millisecond) // load flowing against the victim
	parted.Store(victim.addr)
	inj.KillAll() // sever live router↔victim connections: the partition is total
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Failover completed while partitioned: survivor owns the tenant,
	// serving its mirrored generation without one oracle run.
	waitServe()
	if got := rt.Placements()["pot"]; got != survivor.addr {
		t.Fatalf("after partition pot placed at %q, want survivor %q", got, survivor.addr)
	}
	if runs := survivor.oracle.runs.Load() - survivorRunsBefore; runs != 0 {
		t.Errorf("survivor ran the oracle %d times — failover was not a warm start", runs)
	}
	st := rt.Stats()
	if st.WarmStarts == 0 {
		t.Errorf("no warm-start recorded: %+v", st)
	}
	if st.Drops != 0 {
		t.Errorf("%d responses silently dropped", st.Drops)
	}
	if got := okCount.Load() + typedErr.Load(); got != issued.Load() {
		t.Errorf("accounting hole: ok %d + typed %d != issued %d",
			okCount.Load(), typedErr.Load(), issued.Load())
	}
	if okCount.Load() == 0 {
		t.Error("no request succeeded across the partition window")
	}
	t.Logf("issued=%d ok=%d typed=%d router=%+v injector=%+v",
		issued.Load(), okCount.Load(), typedErr.Load(), st, inj.Stats())

	// Heal, then drain: pools and goroutines return to baseline.
	parted.Store("")
	rc.Close()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if bal := rt.poolBalance(); bal != 0 {
		t.Errorf("remap pool leaked %d entries", bal)
	}
	mirror.Close()
	w1.kill()
	w2.kill()
	waitGoroutines(t, base, 3)
}

// TestStallWatchCondemnsBlackholedWorker resets the router's connection
// to its only worker mid-load, and refuses redials while the fault holds.
// The router must condemn the connection: every query resolves — ok, or
// Retry and the other typed errors — the router logs the lost connection,
// the worker leaves the ring, and once the fault clears it rejoins and
// serves again. (A blackhole, which no transport error reveals, is the
// connection's own stall watch: netserve's TestSpliceContract.)
func TestStallWatchCondemnsBlackholedWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a worker stack under fault injection")
	}
	base := runtime.NumGoroutine()
	w := startWorker(t, filepath.Join(t.TempDir(), "w"), 1)
	sw := testWrapper(w.oracle, 1)
	if err := sw.Pretrain(testDesign(30, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.fl.Register("pot", sw); err != nil {
		t.Fatal(err)
	}

	// While the fault holds, redials are refused too, so the condemned
	// worker stays out of the ring until the test clears it.
	inj := chaos.New(11)
	var refuse atomic.Bool
	dial := inj.Dialer(nil)
	var logMu sync.Mutex
	var logs []string
	rt, err := New(Config{
		Workers: []string{w.addr},
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			if refuse.Load() {
				return nil, fmt.Errorf("chaos: %s unreachable", addr)
			}
			return dial(addr, timeout)
		},
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.Serve(ln)
	rc := dialRouter(t, ln.Addr().String())

	y, std := make([]float64, 1), make([]float64, 1)
	waitServe := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if _, qerr := rc.QueryInto("pot", []float64{0.1, 0.1}, y, std, time.Now().Add(time.Second)); qerr == nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("tenant pot never served; router %+v", rt.Stats())
	}
	waitServe()

	// Load through the fault.
	var issued, okCount, typedErr atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			yy, ss := make([]float64, 1), make([]float64, 1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				issued.Add(1)
				_, qerr := rc.QueryInto("pot", []float64{0.2, -0.1}, yy, ss, time.Now().Add(5*time.Second))
				var re *netserve.RemoteError
				switch {
				case qerr == nil:
					okCount.Add(1)
				case errors.Is(qerr, netserve.ErrRetry), errors.Is(qerr, netserve.ErrExpired),
					errors.Is(qerr, netserve.ErrConnLost), errors.Is(qerr, netserve.ErrNoConn),
					errors.As(qerr, &re):
					typedErr.Add(1)
				default:
					t.Errorf("untyped query error under the fault: %v", qerr)
					return
				}
			}
		}()
	}
	time.Sleep(30 * time.Millisecond) // load flowing through the worker connection
	refuse.Store(true)
	inj.KillAll()
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	if got := okCount.Load() + typedErr.Load(); got != issued.Load() {
		t.Errorf("accounting hole: ok %d + typed %d != issued %d", okCount.Load(), typedErr.Load(), issued.Load())
	}
	if typedErr.Load() == 0 {
		t.Error("no query failed through the fault: the lost connection was never seen")
	}
	logMu.Lock()
	condemned := false
	for _, l := range logs {
		condemned = condemned || strings.Contains(l, "connection lost")
	}
	logMu.Unlock()
	if !condemned {
		t.Errorf("router never logged the lost connection; log %q", logs)
	}
	if st := rt.Stats(); st.WorkersLive != 0 || st.Retries == 0 {
		t.Errorf("reset worker still live, or no Retry answered: %+v", st)
	}

	// Heal: the repair loop redials, the worker rejoins and serves.
	inj.Clear()
	refuse.Store(false)
	waitServe()
	if got := rt.Placements()["pot"]; got != w.addr {
		t.Errorf("after the fault pot placed at %q, want %q", got, w.addr)
	}
	t.Logf("issued=%d ok=%d typed=%d router=%+v", issued.Load(), okCount.Load(), typedErr.Load(), rt.Stats())

	rc.Close()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if bal := rt.poolBalance(); bal != 0 {
		t.Errorf("remap pool leaked %d entries", bal)
	}
	w.kill()
	waitGoroutines(t, base, 3)
}
