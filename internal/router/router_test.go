package router

import (
	"fmt"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/netserve"
	"repro/internal/registry"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// ---------------------------------------------------------------------------
// harness

// testOracle is a deterministic 2→1 oracle counting Run calls.
type testOracle struct{ runs atomic.Int64 }

func (o *testOracle) Dims() (int, int) { return 2, 1 }
func (o *testOracle) Run(x []float64) ([]float64, error) {
	o.runs.Add(1)
	return []float64{math.Cos(2*x[0]) - 0.3*x[1]}, nil
}

func testDesign(n int, seed uint64) *tensor.Matrix {
	rng := xrand.New(seed)
	m := tensor.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		m.Set(i, 0, rng.Range(-1, 1))
		m.Set(i, 1, rng.Range(-1, 1))
	}
	return m
}

func testWrapper(oracle core.Oracle, seed uint64) *core.ShardedWrapper {
	fac := core.NewNNSurrogateFactory(2, 1, []int{8}, 0.1, xrand.New(seed), func(s *core.NNSurrogate) {
		s.Epochs = 30
		s.MCPasses = 4
	})
	return core.NewShardedWrapper(oracle, fac, core.ShardedConfig{
		Router:          core.HashRouter{Shards: 1},
		MinTrainSamples: 8,
		UQThreshold:     1e9, // always trust the surrogate once trained
	})
}

// testWorker is one worker process in miniature: fleet + registry +
// netserve server with the router's artifact hooks installed.
type testWorker struct {
	addr   string
	fl     *fleet.Fleet
	reg    *registry.Registry
	srv    *netserve.Server
	ln     net.Listener
	oracle *testOracle
	hooks  *WorkerHooks
}

func startWorker(t *testing.T, dir string, seed uint64) *testWorker {
	t.Helper()
	return startWorkerWith(t, dir, seed, testWrapper)
}

// startWorkerWith is startWorker with every placed tenant's wrapper built
// by mk.
func startWorkerWith(t *testing.T, dir string, seed uint64, mk func(core.Oracle, uint64) *core.ShardedWrapper) *testWorker {
	t.Helper()
	reg, err := registry.Open(registry.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w := &testWorker{
		fl:     fleet.New(fleet.Config{}),
		reg:    reg,
		oracle: &testOracle{},
	}
	w.hooks = &WorkerHooks{
		Fleet:    w.fl,
		Registry: reg,
		Seed:     seed,
		Make: func(tenant string) (*core.ShardedWrapper, error) {
			return mk(w.oracle, seed), nil
		},
		Pretrain: func(tenant string, sw *core.ShardedWrapper) error {
			return sw.Pretrain(testDesign(30, seed))
		},
	}
	w.srv = netserve.NewServer(netserve.Config{
		Fleet:     w.fl,
		Artifacts: w.hooks,
		Install:   w.hooks,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w.ln = ln
	w.addr = ln.Addr().String()
	go w.srv.Serve(ln)
	return w
}

func (w *testWorker) kill() {
	w.srv.Close()
	w.fl.Close()
	w.reg.Close()
}

func dialRouter(t *testing.T, addr string) *netserve.ResilientClient {
	t.Helper()
	rc, err := netserve.DialResilient(addr, netserve.ResilientConfig{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

func waitGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+slack {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d, baseline %d (+%d slack)", runtime.NumGoroutine(), base, slack)
}

// ---------------------------------------------------------------------------
// ring

func TestRingPlacement(t *testing.T) {
	mk := func(addrs ...string) []*worker {
		ws := make([]*worker, len(addrs))
		for i, a := range addrs {
			ws[i] = &worker{addr: a}
			ws[i].alive.Store(true)
		}
		return ws
	}
	ws := mk("a:1", "b:1", "c:1")
	r1 := buildRing(ws, 64)
	r2 := buildRing(ws, 64)
	moved, total := 0, 500
	// Determinism + bounded movement when one worker dies.
	dead := buildRing(ws[:2], 64)
	for i := 0; i < total; i++ {
		tn := []byte(fmt.Sprintf("tenant-%d", i))
		w1, w2 := r1.owner(tn), r2.owner(tn)
		if w1 != w2 {
			t.Fatalf("ring not deterministic for %s", tn)
		}
		if dw := dead.owner(tn); dw != w1 {
			if w1 != ws[2] {
				moved++ // a tenant not on the dead worker moved anyway
			}
		} else if w1 == ws[2] {
			t.Fatalf("tenant %s still owned by dead worker", tn)
		}
	}
	if moved > 0 {
		t.Errorf("%d/%d tenants not on the dead worker moved on its death", moved, total)
	}
	// Rough balance: each live worker owns a nontrivial share.
	counts := map[*worker]int{}
	for i := 0; i < total; i++ {
		counts[r1.owner([]byte(fmt.Sprintf("tenant-%d", i)))]++
	}
	for _, wk := range ws {
		if counts[wk] < total/10 {
			t.Errorf("worker %s owns %d/%d tenants — ring badly imbalanced", wk.addr, counts[wk], total)
		}
	}
	if empty := buildRing(nil, 64); empty.owner([]byte("x")) != nil {
		t.Error("empty ring returned an owner")
	}
}

// ---------------------------------------------------------------------------
// end-to-end routing

// Two workers behind a router: provisioned tenants place (cold,
// pretraining on their owner), queries route through and answer from
// surrogates, and unknown tenants pass through as typed errors.
func TestRoutedQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker stacks")
	}
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	w1 := startWorker(t, filepath.Join(dir, "w1"), 1)
	w2 := startWorker(t, filepath.Join(dir, "w2"), 2)

	mirror, err := registry.Open(registry.Config{Dir: filepath.Join(dir, "mirror")})
	if err != nil {
		t.Fatal(err)
	}
	tenants := []string{"alpha", "beta", "gamma", "delta"}
	rt, err := New(Config{
		Workers:  []string{w1.addr, w2.addr},
		Registry: mirror,
		Tenants:  tenants,
		Logf:     t.Logf,
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
	for _, tn := range tenants {
		var res netserve.WireResult
		var qerr error
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			res, qerr = rc.QueryInto(tn, []float64{0.3, -0.2}, y, std, time.Now().Add(time.Second))
			if qerr == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if qerr != nil {
			t.Fatalf("tenant %s never served: %v (router %+v)", tn, qerr, rt.Stats())
		}
		if res.Src != core.FromSurrogate {
			t.Errorf("tenant %s served from src %d, want surrogate", tn, res.Src)
		}
		want := math.Cos(2*0.3) - 0.3*-0.2
		if math.Abs(y[0]-want) > 0.5 {
			t.Errorf("tenant %s answer %.3f, oracle truth %.3f — not a trained model", tn, y[0], want)
		}
	}

	// Placement is consistent and covers both workers' address space.
	pl := rt.Placements()
	for _, tn := range tenants {
		if pl[tn] != w1.addr && pl[tn] != w2.addr {
			t.Errorf("tenant %s placed at %q", tn, pl[tn])
		}
	}

	// An unprovisioned tenant routes through and comes back typed.
	if _, qerr := rc.QueryInto("ghost", []float64{0, 0}, y, std, time.Now().Add(time.Second)); qerr == nil {
		t.Error("unknown tenant served")
	}

	// Mirror caught up with the workers' pretrain generations.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		n := 0
		for _, tn := range tenants {
			if g, ok := mirror.CurrentGeneration(registry.ShardKey(tn, 0)); ok && g >= 1 {
				n++
			}
		}
		if n == len(tenants) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, tn := range tenants {
		if g, ok := mirror.CurrentGeneration(registry.ShardKey(tn, 0)); !ok || g < 1 {
			t.Errorf("mirror never replayed %s (gen %d ok=%v)", tn, g, ok)
		}
	}

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

// Killing the worker that owns a tenant rehashes it onto the survivor,
// which warm-starts from the router's mirrored artifacts: the tenant
// serves again from a surrogate with zero oracle runs on the survivor.
func TestFailoverWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker stacks")
	}
	dir := t.TempDir()
	w1 := startWorker(t, filepath.Join(dir, "w1"), 1)
	w2 := startWorker(t, filepath.Join(dir, "w2"), 2)
	workers := map[string]*testWorker{w1.addr: w1, w2.addr: w2}

	mirror, err := registry.Open(registry.Config{Dir: filepath.Join(dir, "mirror")})
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Close()
	rt, err := New(Config{
		Workers:  []string{w1.addr, w2.addr},
		Registry: mirror,
		Tenants:  []string{"pot"},
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

	// Wait for the tenant to serve and the mirror to hold its model.
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

	victim.kill()
	waitServe() // rehash + warm-started failover

	if got := rt.Placements()["pot"]; got != survivor.addr {
		t.Fatalf("after failover pot placed at %q, want survivor %q", got, survivor.addr)
	}
	res, qerr := rc.QueryInto("pot", []float64{0.3, -0.2}, y, std, time.Now().Add(time.Second))
	if qerr != nil {
		t.Fatal(qerr)
	}
	if res.Src != core.FromSurrogate {
		t.Errorf("failed-over tenant served from src %d, want surrogate", res.Src)
	}
	if runs := survivor.oracle.runs.Load() - survivorRunsBefore; runs != 0 {
		t.Errorf("survivor ran the oracle %d times — failover was not a warm start", runs)
	}
	st := rt.Stats()
	if st.WarmStarts == 0 {
		t.Errorf("no warm-start recorded: %+v", st)
	}
	fst, err := survivor.fl.TenantStats("pot")
	if err != nil {
		t.Fatal(err)
	}
	if fst.PlacementSource != "warm" || fst.PlacementWarmShards == 0 {
		t.Errorf("survivor placement metadata %q/%d shards, want warm/≥1",
			fst.PlacementSource, fst.PlacementWarmShards)
	}
	survivor.kill()
}
