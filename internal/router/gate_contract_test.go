package router

import (
	"errors"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/netserve"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// The gate contract holds on every serving path: a row the UQ gate would
// send to the oracle is never answered from the surrogate, however the
// row reached the wrapper and however loaded the path was. Each row
// resolves to exactly one of
//
//   - FromSurrogate, with every predictive std ≤ UQThreshold;
//   - FromSimulation, equal to the oracle's answer;
//   - a typed overload error: fleet.ErrOverloaded, or its wire status
//     netserve.ErrRetry (what a retrying client returns once its attempts
//     are spent).
//
// Overload is shed, never served at a looser gate.

const (
	gateTenant = "gate"
	gateSeed   = 3
	gateRows   = 64
)

// gateWrapper is the contract's tenant: a stochastic (MC-dropout) net
// whose predictive std spreads widely over gateInputs, gated at thr.
func gateWrapper(oracle core.Oracle, seed uint64, thr float64) *core.ShardedWrapper {
	fac := core.NewNNSurrogateFactory(2, 1, []int{16}, 0.2, xrand.New(seed), func(s *core.NNSurrogate) {
		s.Epochs = 30
		s.MCPasses = 8
	})
	return core.NewShardedWrapper(oracle, fac, core.ShardedConfig{
		Router:          core.HashRouter{Shards: 1},
		MinTrainSamples: 8,
		UQThreshold:     thr,
	})
}

// pretrainedGateWrapper is gateWrapper after the same pretraining a
// worker gives a cold-placed tenant.
func pretrainedGateWrapper(t *testing.T, thr float64) *core.ShardedWrapper {
	t.Helper()
	w := gateWrapper(&testOracle{}, gateSeed, thr)
	if err := w.Pretrain(testDesign(30, gateSeed)); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	return w
}

// gateInputs spans three times the pretraining box, so rows range from
// well inside the training data (small std) to far outside it (large).
func gateInputs() [][]float64 {
	rng := xrand.New(gateSeed + 1)
	rows := make([][]float64, gateRows)
	for i := range rows {
		rows[i] = []float64{rng.Range(-3, 3), rng.Range(-3, 3)}
	}
	return rows
}

// bindingThreshold is the median std an ungated copy of the tenant
// reports over rows: gated there, about half the rows go to the oracle.
func bindingThreshold(t *testing.T, rows [][]float64) float64 {
	t.Helper()
	w := pretrainedGateWrapper(t, math.Inf(1))
	res := make([]core.BatchResult, len(rows))
	if err := w.QueryBatchInto(tensor.FromRows(rows), res); err != nil {
		t.Fatal(err)
	}
	stds := make([]float64, len(res))
	for i, r := range res {
		if r.Src != core.FromSurrogate || len(r.Std) != 1 {
			t.Fatalf("ungated row %d answered from %v with std %v", i, r.Src, r.Std)
		}
		stds[i] = r.Std[0]
	}
	slices.Sort(stds)
	if stds[0] == stds[len(stds)-1] {
		t.Fatalf("every row has std %g: no threshold can bind", stds[0])
	}
	return stds[len(stds)/2]
}

// gateAnswer is one answer as a serving path hands it back, for row row
// of the contract's inputs.
type gateAnswer struct {
	row    int
	y, std []float64
	src    core.Source
	err    error
}

// checkGate holds every answer to the gate contract and counts the
// outcomes: served from the surrogate, simulated, shed.
func checkGate(t *testing.T, thr float64, rows [][]float64, got []gateAnswer) (served, simulated, shed int) {
	t.Helper()
	for _, a := range got {
		i := a.row
		switch {
		case a.err != nil:
			if !errors.Is(a.err, fleet.ErrOverloaded) && !errors.Is(a.err, netserve.ErrRetry) {
				t.Errorf("row %d: untyped error %v", i, a.err)
			}
			shed++
		case a.src == core.FromSurrogate:
			if len(a.y) != 1 || len(a.std) != 1 {
				t.Errorf("row %d: surrogate answer y=%v std=%v, want one output with its std", i, a.y, a.std)
			}
			for _, s := range a.std {
				if !(s <= thr) {
					t.Errorf("row %d: served from the surrogate at std %g, above the threshold %g", i, s, thr)
				}
			}
			served++
		case a.src == core.FromSimulation:
			want, _ := (&testOracle{}).Run(rows[i])
			if !slices.Equal(a.y, want) {
				t.Errorf("row %d: simulated answer %v, oracle says %v", i, a.y, want)
			}
			simulated++
		default:
			t.Errorf("row %d: unknown source %v", i, a.src)
		}
	}
	return served, simulated, shed
}

// TestGateContract serves the contract's tenant four ways and holds
// every row of every path to checkGate. Each path must both serve and
// simulate (the threshold binds there), and the fleet path, whose bursts
// outnumber its in-flight bound, must shed.
func TestGateContract(t *testing.T) {
	rows := gateInputs()
	thr := bindingThreshold(t, rows)
	paths := []struct {
		name     string
		serve    func(t *testing.T, thr float64, rows [][]float64) []gateAnswer
		wantShed bool
	}{
		{"in-process", serveInProcess, false},
		{"fleet", serveFleetOverloaded, true},
		{"wire", serveWire, false},
		{"router", serveRouted, false},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			served, simulated, shed := checkGate(t, thr, rows, p.serve(t, thr, rows))
			t.Logf("%d served, %d simulated, %d shed (threshold %.4g)", served, simulated, shed, thr)
			if served == 0 || simulated == 0 {
				t.Errorf("threshold does not bind on this path: %d served, %d simulated", served, simulated)
			}
			if p.wantShed && shed == 0 {
				t.Error("no row was shed: the path never ran past its in-flight bound")
			}
		})
	}
}

// serveInProcess is one ShardedWrapper.QueryBatchInto over every row.
func serveInProcess(t *testing.T, thr float64, rows [][]float64) []gateAnswer {
	w := pretrainedGateWrapper(t, thr)
	res := make([]core.BatchResult, len(rows))
	if err := w.QueryBatchInto(tensor.FromRows(rows), res); err != nil {
		t.Fatal(err)
	}
	out := make([]gateAnswer, len(rows))
	for i, r := range res {
		out[i] = gateAnswer{row: i, y: r.Y, std: r.Std, src: r.Src, err: r.Err}
	}
	return out
}

// gateBurst is how many rows each fleet caller submits at once: more
// than gateMaxInFlight, so every burst overruns the bound by itself.
const (
	gateBurst       = 8
	gateMaxInFlight = 4
)

// serveFleetOverloaded sends the rows as concurrent fleet.QueryRows
// bursts, more callers than the tenant's in-flight bound admits. Like a
// client backing off, each caller resubmits its shed rows until every row
// is answered; every attempt's answer, shed or not, is returned.
func serveFleetOverloaded(t *testing.T, thr float64, rows [][]float64) []gateAnswer {
	fl := fleet.New(fleet.Config{MaxInFlight: gateMaxInFlight})
	defer fl.Close()
	if err := fl.Register(gateTenant, pretrainedGateWrapper(t, thr)); err != nil {
		t.Fatal(err)
	}
	answers := make([][]gateAnswer, len(rows)/gateBurst)
	var wg sync.WaitGroup
	for c := range answers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pending := make([]int, gateBurst)
			for k := range pending {
				pending[k] = c*gateBurst + k
			}
			for attempt := 0; len(pending) > 0 && attempt < 1000; attempt++ {
				burst := make([][]float64, len(pending))
				for k, i := range pending {
					burst[k] = rows[i]
				}
				var shed []int
				answered := 0
				err := fl.QueryRows(gateTenant, burst, nil, func(k int, r serve.Result, err error) {
					answered++
					// r aliases pooled batch storage: copy it out.
					answers[c] = append(answers[c], gateAnswer{row: pending[k], y: slices.Clone(r.Y), std: slices.Clone(r.Std), src: r.Src, err: err})
					if errors.Is(err, fleet.ErrOverloaded) {
						shed = append(shed, pending[k])
					}
				})
				if err != nil || answered != len(burst) {
					t.Errorf("caller %d: %d of %d rows answered (%v)", c, answered, len(burst), err)
					return
				}
				pending = shed
				runtime.Gosched()
			}
		}(c)
	}
	wg.Wait()
	var out []gateAnswer
	for _, a := range answers {
		out = append(out, a...)
	}
	return out
}

// queryConcurrently sends every row as its own ResilientClient query, all
// at once.
func queryConcurrently(rc *netserve.ResilientClient, rows [][]float64) []gateAnswer {
	out := make([]gateAnswer, len(rows))
	var wg sync.WaitGroup
	for i, x := range rows {
		wg.Add(1)
		go func(i int, x []float64) {
			defer wg.Done()
			y, std := make([]float64, 1), make([]float64, 1)
			r, err := rc.QueryInto(gateTenant, x, y, std, time.Time{})
			out[i] = gateAnswer{row: i, y: r.Y, std: r.Std, src: r.Src, err: err}
		}(i, x)
	}
	wg.Wait()
	return out
}

// serveWire queries a netserve.Server through a ResilientClient. The
// server's fleet admits two rows at a time, so sheds cross the wire as
// Retry statuses.
func serveWire(t *testing.T, thr float64, rows [][]float64) []gateAnswer {
	fl := fleet.New(fleet.Config{MaxInFlight: 2})
	defer fl.Close()
	if err := fl.Register(gateTenant, pretrainedGateWrapper(t, thr)); err != nil {
		t.Fatal(err)
	}
	srv := netserve.NewServer(netserve.Config{Fleet: fl})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	rc := dialRouter(t, ln.Addr().String())
	defer rc.Close()
	return queryConcurrently(rc, rows)
}

// serveRouted places the tenant cold on a worker behind a router.Router
// and queries the router once the placement serves.
func serveRouted(t *testing.T, thr float64, rows [][]float64) []gateAnswer {
	wk := startWorkerWith(t, filepath.Join(t.TempDir(), "w"), gateSeed, func(o core.Oracle, seed uint64) *core.ShardedWrapper {
		return gateWrapper(o, seed, thr)
	})
	defer wk.kill()
	rt, err := New(Config{Workers: []string{wk.addr}, Tenants: []string{gateTenant}, Logf: t.Logf})
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
	// Until the cold placement serves, the router answers Retry.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := rc.Query(gateTenant, rows[0], time.Time{})
		if err == nil {
			break
		}
		if !errors.Is(err, netserve.ErrRetry) || time.Now().After(deadline) {
			t.Fatalf("tenant never placed: %v (router %+v)", err, rt.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return queryConcurrently(rc, rows)
}
