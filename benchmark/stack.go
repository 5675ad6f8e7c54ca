package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/netserve"
	"repro/internal/registry"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Serving tenants are the shape the repo's own wire benchmarks use: a
// 2→[24]→1 dropout MLP, 10 MC passes, two shards, a UQ threshold so
// loose the oracle is never hit. What the benchmark fixes on top is the
// provisioning work, sized so that set-up is seconds, not a tenth of one.
//
// The models are provisioning, not input: their design points and
// training seeds are constants, so a tenant is the same model on every
// run and answer_rmse measures the stack, not the luck of one
// initialisation. --seed drives only the request streams.
const (
	servingTenants     = 4
	servingUQThreshold = 10.0
	servingMCPasses    = 10
	servingDesignRows  = 4096
	servingEpochs      = 200
	servingWarmups     = 64 // per caller, 64 callers: 4096 warm-up rows
	provisionSeed      = 0x5e4e
)

func servingTruth(x []float64) float64 { return math.Sin(x[0]) + 0.5*x[1] }

func servingInput(rng *xrand.Rand, x []float64) {
	x[0] = rng.Range(-2, 2)
	x[1] = rng.Range(-1, 1)
}

func servingOracle() core.Oracle {
	return core.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{servingTruth(x)}, nil
	}}
}

// fixedFactory builds every surrogate of a tenant — each shard's, each
// refit generation's — from the same initialisation seed, so a model
// depends only on the data it was fitted on. (A split-per-call factory
// hands out its streams in whatever order parallel shard fits ask for
// them, which makes the trained model a coin toss.)
func fixedFactory(in, out int, hidden []int, seed uint64, configure func(*core.NNSurrogate)) core.SurrogateFactory {
	return func() core.Surrogate {
		s := core.NewNNSurrogate(in, out, hidden, 0.1, xrand.New(seed))
		configure(s)
		return s
	}
}

func servingFactory(tenant int) core.SurrogateFactory {
	return fixedFactory(2, 1, []int{24}, provisionSeed+uint64(tenant)*7919, func(s *core.NNSurrogate) {
		s.Epochs = servingEpochs
		s.MCPasses = servingMCPasses
	})
}

func newServingWrapper(tenant int) *core.ShardedWrapper {
	return core.NewShardedWrapper(servingOracle(), servingFactory(tenant), core.ShardedConfig{
		Shards: 2, MinTrainSamples: 10, UQThreshold: servingUQThreshold,
		OracleWorkers: runtime.GOMAXPROCS(0),
	})
}

func servingDesign(tenant int) *tensor.Matrix {
	rng := xrand.New(provisionSeed ^ 0xd51 + uint64(tenant))
	m := tensor.NewMatrix(servingDesignRows, 2)
	for i := 0; i < m.Rows; i++ {
		servingInput(rng, m.Row(i))
	}
	return m
}

// env is what one benchmark process was asked to do.
type env struct {
	seed    uint64
	seconds float64
	tr      *tracer // nil on the untraced run
	out     string  // directory inside the checkout for scratch and span files
}

func (e *env) tmp() string { return filepath.Join(e.out, "tmp") }

func (e *env) dur(share float64) time.Duration {
	return time.Duration(e.seconds * share * float64(time.Second))
}

// backend returns what the benchmark registers for a tenant: the wrapper
// itself, or on the traced run its timing decorator.
func (e *env) backend(w *core.ShardedWrapper, tenant int) serve.Backend {
	if e.tr == nil {
		return w
	}
	return &timedBackend{w, e.tr.buf(spanBackend, tenant)}
}

// publishHook persists every generation a wrapper starts serving, counts
// it, and on the traced run records the publish as a span.
func (e *env) publishHook(p *provisioned, name string) core.PublishHook {
	inner := registry.Publisher(p.reg, name, func(si int, err error) {
		p.bg.set(fmt.Errorf("publish %s shard %d: %w", name, si, err))
	})
	var buf *spanBuf
	if e.tr != nil {
		buf = e.tr.buf(spanPublish, 0)
	}
	return func(si int, sur core.Surrogate, residBase float64) {
		t0 := time.Now()
		inner(si, sur, residBase)
		p.published.Add(1)
		if buf != nil {
			buf.add(t0, time.Now(), 1)
		}
	}
}

// errBox keeps the first background failure of a stack.
type errBox struct {
	mu  sync.Mutex
	err error
}

func (b *errBox) set(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

func (b *errBox) get() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// provisioned is a registry plus what set-up learned about it.
type provisioned struct {
	dir         string
	reg         *registry.Registry
	warmStartMS float64
	published   atomic.Int64 // generations the publish hooks persisted
	bg          errBox
}

func openRegistry(e *env) (*provisioned, error) {
	dir, err := os.MkdirTemp(e.tmp(), "registry-")
	if err != nil {
		return nil, err
	}
	reg, err := registry.Open(registry.Config{Dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &provisioned{dir: dir, reg: reg}, nil
}

func (p *provisioned) close() {
	p.reg.Close()
	os.RemoveAll(p.dir)
}

// warmReplica warm-starts a second, untrained wrapper from what the
// first one published, the way a replacement worker comes up.
func (p *provisioned) warmReplica(name string, replica *core.ShardedWrapper, seed uint64) error {
	t0 := time.Now()
	var werr error
	warmed := registry.WarmStartSharded(p.reg, name, replica, xrand.New(seed), func(si int, err error) {
		werr = fmt.Errorf("warm-start %s shard %d: %w", name, si, err)
	})
	p.warmStartMS += float64(time.Since(t0)) / 1e6
	if werr != nil {
		return werr
	}
	if warmed != replica.NumShards() {
		return fmt.Errorf("warm-start %s: %d of %d shards restored", name, warmed, replica.NumShards())
	}
	return nil
}

// routedStack is the serving topology: 2 clients → router → 2 netserve
// workers, each worker a fleet of the 4 tenants behind per-tenant
// coalescers. Worker 0's tenants are trained from scratch and published;
// worker 1's are warm-started from the registry.
type routedStack struct {
	e        *env
	prov     *provisioned
	names    []string
	wrappers [2][]*core.ShardedWrapper
	backends [2][]serve.Backend
	fleets   [2]*fleet.Fleet
	servers  [2]*netserve.Server
	addrs    [2]string
	rt       *router.Router
	rtAddr   string
	clients  []*netserve.ResilientClient
	serving  sync.WaitGroup // the Serve goroutines

	// Wire counters of the traced run: client → router, router → workers,
	// workers → router, router → client.
	hopClient, hopRouterOut, hopWorkers, hopRouterIn hop
}

const routedConns = 2

var workerNames = [2]string{"wk0:1", "wk1:1"}

func (s *routedStack) listen(h *hop) (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	addr := ln.Addr().String()
	if s.e.tr != nil {
		ln = &countedListener{ln, h}
	}
	return ln, addr, nil
}

func (s *routedStack) dial(addr string, h *hop) (*netserve.ResilientClient, error) {
	cfg := netserve.ResilientConfig{Conns: 1}
	if s.e.tr != nil {
		cfg.Client.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return dialCounted(addr, timeout, h)
		}
	}
	return netserve.DialResilient(addr, cfg)
}

func setupRouted(e *env) (*routedStack, error) {
	s := &routedStack{e: e}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	var err error
	if s.prov, err = openRegistry(e); err != nil {
		return nil, err
	}
	for t := 0; t < servingTenants; t++ {
		s.names = append(s.names, fmt.Sprintf("t%d", t))
	}
	// Worker 0: every tenant pretrained from scratch, each generation
	// published. Worker 1: warm-started replicas.
	for t, name := range s.names {
		w := newServingWrapper(t)
		w.SetPublishHook(e.publishHook(s.prov, name))
		if err := w.Pretrain(servingDesign(t)); err != nil {
			return nil, fmt.Errorf("pretrain %s: %w", name, err)
		}
		replica := newServingWrapper(t)
		if err := s.prov.warmReplica(name, replica, provisionSeed+uint64(t)); err != nil {
			return nil, err
		}
		s.wrappers[0] = append(s.wrappers[0], w)
		s.wrappers[1] = append(s.wrappers[1], replica)
	}
	if err := s.prov.bg.get(); err != nil {
		return nil, err
	}
	for wk := 0; wk < 2; wk++ {
		s.fleets[wk] = fleet.New(fleet.Config{})
		for t, name := range s.names {
			b := e.backend(s.wrappers[wk][t], t)
			s.backends[wk] = append(s.backends[wk], b)
			if err := s.fleets[wk].Register(name, b); err != nil {
				return nil, err
			}
		}
		srv := netserve.NewServer(netserve.Config{Fleet: s.fleets[wk]})
		s.servers[wk] = srv
		ln, addr, err := s.listen(&s.hopWorkers)
		if err != nil {
			return nil, err
		}
		s.addrs[wk] = addr
		s.serve(func() error { return srv.Serve(ln) }, netserve.ErrServerClosed)
	}
	// The router's ring hashes worker addresses, and loopback listeners
	// get a random port per run: left alone, placement — 2:2, 3:1 or all
	// four tenants on one worker — is a coin toss that moves every routed
	// metric. The router is therefore given fixed worker names, resolved
	// to the real listeners by its Dialer; the names are chosen so the
	// ring spreads the four tenants 2:2 (router.placement_skew = 1).
	resolve := map[string]string{workerNames[0]: s.addrs[0], workerNames[1]: s.addrs[1]}
	var hopOut *hop
	if e.tr != nil {
		hopOut = &s.hopRouterOut
	}
	rcfg := router.Config{Workers: workerNames[:], Dialer: func(name string, timeout time.Duration) (net.Conn, error) {
		return dialCounted(resolve[name], timeout, hopOut)
	}}
	if s.rt, err = router.New(rcfg); err != nil {
		return nil, err
	}
	ln, addr, err := s.listen(&s.hopRouterIn)
	if err != nil {
		return nil, err
	}
	s.rtAddr = addr
	s.serve(func() error { return s.rt.Serve(ln) }, router.ErrRouterClosed)
	for c := 0; c < routedConns; c++ {
		cl, err := s.dial(s.rtAddr, &s.hopClient)
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}
	// A fixed count of warm-up rows fills every pool on the path and ends
	// set-up; the next request is the first measured one.
	if err := warmRows(closedCallers, servingWarmups, s.wireCall(s.clients)); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// serve runs one blocking Serve call; any return other than the layer's
// own closed sentinel is a background failure of the stack.
func (s *routedStack) serve(f func() error, closed error) {
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		if err := f(); err != nil && !errors.Is(err, closed) {
			s.prov.bg.set(err)
		}
	}()
}

func (s *routedStack) close() {
	for _, cl := range s.clients {
		cl.Close()
	}
	if s.rt != nil {
		s.rt.Close()
	}
	for wk := range s.servers {
		if s.servers[wk] != nil {
			s.servers[wk].Close()
		}
		if s.fleets[wk] != nil {
			s.fleets[wk].Close()
		}
	}
	s.serving.Wait()
	if s.prov != nil {
		s.prov.close()
	}
}

// wireCall enters the stack the way a remote user does: one row through
// a resilient client, no deadline.
func (s *routedStack) wireCall(clients []*netserve.ResilientClient) func(c int) rowCall {
	return func(c int) rowCall {
		cl := clients[c%len(clients)]
		return func(tenant int, x, y, std []float64) (bool, error) {
			res, err := cl.QueryInto(s.names[tenant], x, y, std, time.Time{})
			return err == nil && res.Src == core.FromSurrogate, err
		}
	}
}

// warmRows pushes a fixed number of rows through call from the same
// number of callers the measurement will use.
func warmRows(callers, perCaller int, call func(c int) rowCall) error {
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f := call(c)
			rng := xrand.New(uint64(c) + 1)
			x, y, std := make([]float64, 2), make([]float64, 1), make([]float64, 1)
			for i := 0; i < perCaller; i++ {
				servingInput(rng, x)
				if _, err := f((c+i)%servingTenants, x, y, std); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}
