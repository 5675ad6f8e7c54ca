package netserve

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/surrogatetest"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// soakSur is a constant-mean surrogate with zero claimed uncertainty, so
// every trained-shard query serves from the surrogate and drift is purely
// a property of ingested residuals.
func soakSur() core.Surrogate { return surrogatetest.Mean(0) }

func TestSoakSurConformance(t *testing.T) {
	x := tensor.FromRows([][]float64{{0, 1}, {2, 3}, {4, 5}})
	y := tensor.FromRows([][]float64{{1}, {2}, {6}})
	surrogatetest.Conformance(t, func() surrogatetest.Surrogate { return soakSur() }, x, y, 1, false)
}

// TestWireSoakChurnAndDrift is the long-haul invariant test: tenants
// register and deregister mid-traffic, one tenant's sharded backend has
// drift injected into it while wire queries flow, and the server is
// finally Closed under load. The contract: every issued query resolves
// (no lost responses), per-tenant stats stay coherent (no torn counters),
// drift becomes visible through the wire-facing stats, and Close drains
// cleanly.
func TestWireSoakChurnAndDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}

	// Drifting tenant: a one-shard wrapper trained on y = 1, whose
	// residual baseline will be shattered by ingesting y = 50.
	oracle := core.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{1}, nil
	}}
	drifter := core.NewShardedWrapper(oracle, soakSur,
		core.ShardedConfig{
			Router:          core.HashRouter{Shards: 1},
			MinTrainSamples: 4,
			RetrainEvery:    0,
			UQThreshold:     1, // zero claimed std → always serve surrogate
			DriftFactor:     2,
		})
	seed := tensor.NewMatrix(8, 2)
	rng := xrand.New(7)
	for i := 0; i < 8; i++ {
		row := seed.Row(i)
		row[0], row[1] = rng.Range(-1, 1), rng.Range(-1, 1)
	}
	if err := drifter.Pretrain(seed); err != nil {
		t.Fatal(err)
	}
	if err := drifter.Wait(); err != nil {
		t.Fatal(err)
	}

	fl := fleet.New(fleet.Config{})
	if err := fl.Register("drifty", drifter); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := fl.Register(fmt.Sprintf("stable%d", i), &testBackend{in: 2, out: 1}); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(Config{Fleet: fl})
	addr := mustListen(t, srv)
	defer fl.Close()

	const runFor = 1200 * time.Millisecond
	stop := make(chan struct{})
	var churns atomic.Int64

	// Churner: register/deregister throwaway tenants the whole run.
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("churn%d", i%4)
			if err := fl.Register(name, &testBackend{in: 2, out: 1}); err != nil {
				t.Errorf("churn register: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
			if err := fl.Deregister(name); err != nil {
				t.Errorf("churn deregister: %v", err)
				return
			}
			churns.Add(1)
		}
	}()

	// Drift injector: after a clean-baseline warmup, pour in shifted data.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		ingest := func(val float64) {
			xs := tensor.NewMatrix(8, 2)
			ys := tensor.NewMatrix(8, 1)
			for i := 0; i < 8; i++ {
				row := xs.Row(i)
				row[0], row[1] = rng.Range(-1, 1), rng.Range(-1, 1)
				ys.Row(i)[0] = val
			}
			if err := drifter.Ingest(xs, ys); err != nil {
				t.Errorf("ingest: %v", err)
			}
		}
		for i := 0; i < 6; i++ { // baseline: data the model explains
			ingest(1)
			time.Sleep(5 * time.Millisecond)
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			ingest(50) // residual 49 vs baseline ~0 → drift
			time.Sleep(10 * time.Millisecond)
		}
	}()

	// Traffic: workers across several connections query stable tenants,
	// the drifter, and the churning names. Every query must resolve with
	// a well-defined outcome.
	const conns = 4
	const workersPerConn = 4
	names := []string{"stable0", "stable1", "stable2", "drifty", "churn0", "churn2"}
	var sent, ok64, unknown, failed atomic.Int64
	var trafficWG sync.WaitGroup
	clients := make([]*Conn, conns)
	for c := range clients {
		cl, err := Dial(addr, ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		clients[c] = cl
		defer cl.Close()
	}
	deadlineT := time.Now().Add(runFor)
	for c := 0; c < conns; c++ {
		for w := 0; w < workersPerConn; w++ {
			trafficWG.Add(1)
			go func(cl *Conn, seed uint64) {
				defer trafficWG.Done()
				rng := xrand.New(seed)
				y := make([]float64, 1)
				std := make([]float64, 1)
				x := make([]float64, 2)
				for i := 0; time.Now().Before(deadlineT); i++ {
					x[0], x[1] = rng.Range(-1, 1), rng.Range(-1, 1)
					name := names[i%len(names)]
					sent.Add(1)
					res, err := cl.QueryInto(name, x, y, std, time.Time{})
					switch {
					case err == nil:
						ok64.Add(1)
						if name != "drifty" {
							want := x[0] + x[1]
							if math.Abs(res.Y[0]-want) > 1e-12 {
								t.Errorf("tenant %s answered %v for sum %v", name, res.Y[0], want)
								return
							}
						}
					case errors.Is(err, ErrUnknownTenant):
						unknown.Add(1) // a churned name between register windows
					case errors.Is(err, ErrRetry):
						// admission shed: resolved, explicitly
					case errors.Is(err, ErrClientClosed):
						failed.Add(1) // only legitimate once Close begins
					default:
						t.Errorf("query %s: unexpected %v", name, err)
						return
					}
				}
			}(clients[c], uint64(c*workersPerConn+w+1))
		}
	}

	trafficWG.Wait()
	close(stop)
	churnWG.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d queries failed with a closed client before Close", failed.Load())
	}
	if ok64.Load() == 0 {
		t.Fatal("no query succeeded")
	}
	if churns.Load() < 10 {
		t.Fatalf("only %d churn cycles in %v", churns.Load(), runFor)
	}
	if unknown.Load() == 0 {
		t.Log("note: churn windows never raced a query (timing-dependent)")
	}

	// No torn stats: the fleet's aggregate matches what the server saw.
	var fleetTotal, fleetInFlight int64
	for _, st := range fl.Stats() {
		fleetTotal += st.Queries
		fleetInFlight += st.InFlight
		if st.Queries < 0 || st.Rejected < 0 || st.Expired < 0 {
			t.Fatalf("negative counters in %+v", st)
		}
	}
	if fleetInFlight != 0 {
		t.Fatalf("fleet reports %d in-flight after traffic stopped", fleetInFlight)
	}
	// Churned tenants take their counters with them on Deregister, so the
	// remaining fleet total is a lower bound ending at the server's count.
	if srvReq := srv.Stats().Requests; fleetTotal > srvReq {
		t.Fatalf("fleet total %d exceeds server requests %d", fleetTotal, srvReq)
	}

	// Drift made it through to the wire-facing stats.
	st, err := fl.TenantStats("drifty")
	if err != nil {
		t.Fatal(err)
	}
	if st.DriftedShards == 0 || st.MaxDriftRatio <= 2 {
		t.Fatalf("drift not visible in tenant stats: %+v", st)
	}

	// Clean drain under (residual) load.
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain")
	}
	t.Logf("soak: %d sent, %d ok, %d unknown-tenant, %d churn cycles, drift ratio %.1f",
		sent.Load(), ok64.Load(), unknown.Load(), churns.Load(), st.MaxDriftRatio)
}

// mustListen starts srv on loopback and returns its address.
func mustListen(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := newLoopback()
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return ln.Addr().String()
}

// newLoopback opens a 127.0.0.1 TCP listener on an ephemeral port.
func newLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
