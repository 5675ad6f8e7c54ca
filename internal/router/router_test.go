package router

import (
	"errors"
	"fmt"
	"hash/fnv"
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
	if w.reg != nil {
		w.reg.Close()
	}
}

// startPlainWorker starts a worker as the benchmark builds them: a fleet
// serving the tenants registered at boot, and no artifact hooks.
func startPlainWorker(t *testing.T, seed uint64, tenants []string) *testWorker {
	t.Helper()
	w := &testWorker{fl: fleet.New(fleet.Config{}), oracle: &testOracle{}}
	for _, tn := range tenants {
		if err := w.fl.Register(tn, testWrapper(w.oracle, seed)); err != nil {
			t.Fatal(err)
		}
	}
	w.srv = netserve.NewServer(netserve.Config{Fleet: w.fl})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w.ln, w.addr = ln, ln.Addr().String()
	go w.srv.Serve(ln)
	t.Cleanup(w.kill)
	return w
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

// TestRingOwnersPinned pins which worker owns each of 3 000 tenants on
// rings of one to six workers, by a hash of the owners' addresses. The
// owner decides where a tenant's warm state lives, so a change to the
// ring's arithmetic that moved owners would move tenants on every router
// upgrade; one that keeps the hash is free to restructure the ring.
func TestRingOwnersPinned(t *testing.T) {
	h := fnv.New64a()
	var ws []*worker
	for n := 1; n <= 6; n++ {
		wk := &worker{addr: fmt.Sprintf("10.0.0.%d:7000", n)}
		wk.alive.Store(true)
		ws = append(ws, wk)
		r := buildRing(ws, ringReplicas)
		for i := 0; i < 3000; i++ {
			fmt.Fprintf(h, "%s;", r.owner([]byte(fmt.Sprintf("tenant-%d", i))).addr)
		}
	}
	if got, want := h.Sum64(), uint64(0xe62e787c92c74960); got != want {
		t.Errorf("ring owners hash %#x, want %#x", got, want)
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

// TestOneConnectionPerWorker counts the connections each worker accepts
// while a router places four tenants cold (pushes), routes their queries,
// and mirrors their generations (stat and fetch calls): the hot frames and
// the artifact calls share one connection per worker.
func TestOneConnectionPerWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker stacks")
	}
	dir := t.TempDir()
	w1 := startWorker(t, filepath.Join(dir, "w1"), 1)
	w2 := startWorker(t, filepath.Join(dir, "w2"), 2)
	defer w1.kill()
	defer w2.kill()
	mirror, err := registry.Open(registry.Config{Dir: filepath.Join(dir, "mirror")})
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Close()
	tenants := []string{"alpha", "beta", "gamma", "delta"}
	rt, err := New(Config{Workers: []string{w1.addr, w2.addr}, Registry: mirror, Tenants: tenants, Logf: t.Logf})
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

	y, std := make([]float64, 1), make([]float64, 1)
	deadline := time.Now().Add(10 * time.Second)
	for _, tn := range tenants {
		for {
			_, qerr := rc.QueryInto(tn, []float64{0.3, -0.2}, y, std, time.Now().Add(time.Second))
			if qerr == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("tenant %s never served: %v", tn, qerr)
			}
			time.Sleep(10 * time.Millisecond)
		}
		for {
			if g, ok := mirror.CurrentGeneration(registry.ShardKey(tn, 0)); ok && g >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("mirror never replayed %s", tn)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for _, w := range []*testWorker{w1, w2} {
		if st := w.srv.Stats(); st.Conns != 1 || st.Open != 1 {
			t.Errorf("worker %s accepted %d connections (%d open), want 1", w.addr, st.Conns, st.Open)
		}
	}
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

// TestHooklessWorkersKeepTheirConnection runs the router's control plane
// against workers without artifact hooks: a provisioned tenant's push
// and the mirror's stat polls are refused, but each worker keeps the one
// connection that carries its hot traffic, and the refused tenant is
// placed on its owner without a push. When a worker dies, its
// on-demand tenants follow the ring to the survivor without a push, and
// every query the survivor then takes is answered.
func TestHooklessWorkersKeepTheirConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker stacks")
	}
	tenants := []string{"t0", "t1", "t2", "t3"}
	names := []string{"wk0:1", "wk1:1"} // twoByTwo's names: the ring places 2:2
	byName := map[string]*testWorker{}
	for i, name := range names {
		byName[name] = startPlainWorker(t, uint64(i+1), tenants)
	}
	mirror, err := registry.Open(registry.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer mirror.Close()
	rt, err := New(Config{Workers: names, Registry: mirror, Tenants: []string{"prov"}, Logf: t.Logf,
		Dialer: func(name string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", byName[name].addr, timeout)
		}})
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
	y, std := make([]float64, 1), make([]float64, 1)
	ask := func(tn string) error {
		_, err := rc.QueryInto(tn, []float64{0.3, -0.2}, y, std, time.Now().Add(time.Second))
		return err
	}
	oneConn := func(w *testWorker) {
		t.Helper()
		if st := w.srv.Stats(); st.Conns != 1 || st.ProtoErrors != 0 {
			t.Errorf("worker %s accepted %d connections with %d protocol errors, want 1 and 0", w.addr, st.Conns, st.ProtoErrors)
		}
	}

	// Three mirror polls and the refused pushes run under the traffic.
	for end := time.Now().Add(3 * mirrorInterval); time.Now().Before(end); {
		for _, tn := range tenants {
			if err := ask(tn); err != nil {
				t.Fatalf("query %s: %v", tn, err)
			}
		}
	}
	if st := rt.Stats(); st.Retries != 0 || st.Rehashes != 1 {
		t.Errorf("steady state: %d Retries, %d rehashes; want 0 and 1", st.Retries, st.Rehashes)
	}
	for _, w := range byName {
		oneConn(w)
	}

	// prov's owner refused its push, which no retry changes: prov is
	// placed on it without a push, and that owner, which does not serve it,
	// answers UnknownTenant, not the Retry of a placement moving for good.
	for end := time.Now().Add(time.Second); ; {
		err := ask("prov")
		if errors.Is(err, netserve.ErrUnknownTenant) {
			break
		}
		if !errors.Is(err, netserve.ErrRetry) || time.Now().After(end) {
			t.Fatalf("query prov: %v; want ErrUnknownTenant within 1 s", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	victimName := rt.Placements()["t0"]
	survivor := byName[names[0]]
	if victimName == names[0] {
		survivor = byName[names[1]]
	}
	byName[victimName].kill()
	deadline := time.Now().Add(5 * time.Second)
	for _, tn := range tenants {
		for err := ask(tn); err != nil; err = ask(tn) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never served after the failover: %v", tn, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	before := rt.Stats().Retries
	for i := 0; i < 50; i++ {
		for _, tn := range tenants {
			if err := ask(tn); err != nil {
				t.Fatalf("query %s after the failover: %v", tn, err)
			}
		}
	}
	if st := rt.Stats(); st.Retries != before {
		t.Errorf("the survivor's traffic drew %d Retries", st.Retries-before)
	}
	placed := rt.Placements()
	for _, tn := range tenants {
		if byName[placed[tn]] != survivor {
			t.Errorf("%s placed at %q, want the survivor", tn, placed[tn])
		}
	}
	oneConn(survivor)
}

// TestRefusedTenantPushedOnRehash places a provisioned tenant on a
// worker without artifact hooks, which refuses its push, and then kills
// that worker: the rehash moves the tenant to a worker that has the hooks,
// which is pushed it and serves it, as a provisioned tenant is.
func TestRefusedTenantPushedOnRehash(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker stacks")
	}
	names := []string{"wk0:1", "wk1:1"}
	var ring []*worker
	for _, name := range names {
		wk := &worker{addr: name}
		wk.alive.Store(true)
		ring = append(ring, wk)
	}
	plainName := buildRing(ring, ringReplicas).owner([]byte("prov")).addr
	plain := startPlainWorker(t, 1, nil)
	hooked := startWorker(t, t.TempDir(), 2)
	defer hooked.kill()
	byName := map[string]*testWorker{}
	for _, name := range names {
		byName[name] = hooked
	}
	byName[plainName] = plain
	rt, err := New(Config{Workers: names, Tenants: []string{"prov"}, Logf: t.Logf,
		Dialer: func(name string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", byName[name].addr, timeout)
		}})
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
	y, std := make([]float64, 1), make([]float64, 1)
	ask := func() error {
		_, err := rc.QueryInto("prov", []float64{0.3, -0.2}, y, std, time.Now().Add(time.Second))
		return err
	}

	// The hookless owner refuses the push and answers UnknownTenant.
	for end := time.Now().Add(time.Second); ; {
		err := ask()
		if errors.Is(err, netserve.ErrUnknownTenant) {
			break
		}
		if !errors.Is(err, netserve.ErrRetry) || time.Now().After(end) {
			t.Fatalf("query prov on the hookless owner: %v; want ErrUnknownTenant within 1 s", err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	plain.kill()
	for end := time.Now().Add(10 * time.Second); ; {
		err := ask()
		if err == nil {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("prov never served after the rehash: %v; router %+v", err, rt.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := rt.Placements()["prov"]; byName[got] != hooked {
		t.Errorf("prov placed at %q, want the hooked worker", got)
	}
	if st := rt.Stats(); st.ColdStarts != 1 {
		t.Errorf("%d cold starts, want the one push to the hooked worker", st.ColdStarts)
	}
}

// TestFailingWorkerRedialsUnderBackoff holds, under steady traffic, a
// worker whose connections are accepted and then fail on first use (every
// write errors). Its redial backoff carries across those reconnects, so
// the router dials it no more often than the ladder allows: one dial a
// rung from reconnectBackoff up to reconnectBackoffMax, then one a
// reconnectBackoffMax — not one every reconnectBackoff.
func TestFailingWorkerRedialsUnderBackoff(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a worker stack")
	}
	w := startPlainWorker(t, 1, []string{"t0"})
	var dials atomic.Int64
	begin := time.Now()
	rt, err := New(Config{Workers: []string{w.addr},
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			dials.Add(1)
			c, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return failWrites{c}, nil
		}})
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
	y, std := make([]float64, 1), make([]float64, 1)
	for end := time.Now().Add(1500 * time.Millisecond); time.Now().Before(end); {
		// Answered Retry: the worker's connection fails this query or
		// is already down.
		rc.QueryInto("t0", []float64{0.3, -0.2}, y, std, time.Now().Add(100*time.Millisecond))
	}
	got, elapsed := dials.Load(), time.Since(begin)
	limit := 1 + int64(elapsed/reconnectBackoffMax) // New's dial, then one a reconnectBackoffMax
	for b := reconnectBackoff; b < reconnectBackoffMax; b *= 2 {
		limit++ // and one a rung of the ladder
	}
	t.Logf("%d dials in %v (limit %d)", got, elapsed.Round(time.Millisecond), limit)
	if got > limit {
		t.Errorf("the router dialled the failing worker %d times in %v, want at most %d", got, elapsed, limit)
	}
	if got < 3 {
		t.Errorf("%d dials: the worker's connections never failed under the traffic", got)
	}
}

// TestPushDoesNotHoldHotAnswers holds a provisioned tenant's cold push
// inside its pretraining while a tenant the worker already serves takes
// routed traffic over the same connection: every hot query is answered
// while the push waits, and the push then completes.
func TestPushDoesNotHoldHotAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker stacks")
	}
	w := startWorker(t, t.TempDir(), 1)
	defer w.kill()
	if err := w.fl.Register("hot", testWrapper(w.oracle, 1)); err != nil {
		t.Fatal(err)
	}
	inPush, release := make(chan struct{}), make(chan struct{})
	pretrain := w.hooks.Pretrain
	w.hooks.Pretrain = func(tenant string, sw *core.ShardedWrapper) error {
		close(inPush)
		<-release
		return pretrain(tenant, sw)
	}
	rt, err := New(Config{Workers: []string{w.addr}, Tenants: []string{"cold"}, Logf: t.Logf})
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
	y, std := make([]float64, 1), make([]float64, 1)

	<-inPush
	start := time.Now()
	for i := 0; i < 200; i++ {
		if _, err := rc.QueryInto("hot", []float64{0.3, -0.2}, y, std, time.Now().Add(time.Second)); err != nil {
			t.Fatalf("hot query %d during the push: %v", i, err)
		}
	}
	t.Logf("200 hot queries answered in %v with the push held", time.Since(start))
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := rc.QueryInto("cold", []float64{0.3, -0.2}, y, std, time.Now().Add(time.Second))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the pushed tenant never served: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := rt.Stats(); st.ColdStarts != 1 || st.Moves != 1 {
		t.Errorf("router %+v, want one cold start", st)
	}
	if st := w.srv.Stats(); st.Conns != 1 {
		t.Errorf("worker accepted %d connections, want 1", st.Conns)
	}
}
