// Multi-tenant serving fleet: one dispatch plane for every surrogate.
// The paper's "learning everywhere" thesis puts an ML stand-in at every
// layer of an HPC workload; this example runs three of them — a
// pair-potential energy surface, a tissue-transport response and an
// epidemic peak calibrator — as named tenants of one repro.Fleet in a
// single process. Each tenant is a sharded, double-buffered wrapper
// behind its own micro-batch coalescer; all three coalescers draw on the
// fleet's shared batch pool, admission is bounded per tenant, and the
// per-tenant stats (QPS, batch width, p99, staleness) come from one
// registry. A middle phase deregisters a tenant mid-traffic: its
// in-flight queries drain gracefully while the neighbours keep serving.
// Phase 5 puts the same fleet on a TCP wire (repro.WireServer): remote
// callers speak the length-prefixed binary protocol through the one wire
// client (repro.DialWireResilient), their frames coalesce into the same
// per-tenant batches, sheds come back as explicit statuses, and the
// client rides out a server restart. The last phase scales out: two
// workers behind a consistent-hash router with warm failover.
package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// tenantSpec is one workload: a named analytic oracle with artificial
// latency standing in for the real simulation.
type tenantSpec struct {
	name string
	f    func(x []float64) []float64
}

func main() {
	rng := repro.NewRand(42)
	specs := []tenantSpec{
		{"potential", func(x []float64) []float64 {
			r := 0.6 + 0.5*(x[0]+1)
			ir6 := math.Pow(r, -6)
			return []float64{ir6*ir6 - ir6 + 0.1*x[1]}
		}},
		{"tissue", func(x []float64) []float64 {
			return []float64{math.Exp(-2*math.Abs(x[0])) * math.Cos(3*x[1])}
		}},
		{"epi", func(x []float64) []float64 {
			r0 := 1 + 1.5*(x[0]+1)
			return []float64{math.Tanh(r0-1) * (0.5 + 0.4*x[1])}
		}},
	}

	fmt.Println("Phase 1: pretrain one sharded backend per workload")
	fl := repro.NewFleet(repro.FleetConfig{
		Coalescer:   repro.CoalescerConfig{MaxBatch: 32},
		MaxInFlight: 256,
	})
	defer fl.Close()

	backends := make(map[string]*repro.ShardedWrapper)
	for _, spec := range specs {
		f := spec.f
		oracle := repro.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
			time.Sleep(200 * time.Microsecond) // the "simulation" cost
			return f(x), nil
		}}
		factory := repro.NewNNSurrogateFactory(2, 1, []int{32}, 0.1, rng, func(s *repro.NNSurrogate) {
			s.Epochs = 120
			s.MCPasses = 8
			s.MaxBatch = 32
		})
		// The training design doubles as the routing distribution: the kd
		// cut points are auto-tuned to its quantiles, so each shard owns
		// an equal-mass slice of where queries actually land.
		design := repro.NewMatrix(160, 2)
		for i := 0; i < design.Rows; i++ {
			design.Set(i, 0, rng.Range(-1, 1))
			design.Set(i, 1, rng.Range(-1, 1))
		}
		cuts := repro.KDCutsFromSamples(design, 0, 2)
		w := repro.NewShardedWrapper(oracle, factory, repro.ShardedConfig{
			Router:          repro.KDRouter{Dim: 0, Cuts: cuts},
			MinTrainSamples: 40,
			RetrainEvery:    400, // periodic background refits under load…
			DriftFactor:     2.5, // …plus adaptive ones when the oracle moves
			UQThreshold:     0.5,
			OracleWorkers:   8,
			// The tissue tenant serves its int8 quantized programs:
			// every published generation quantizes on Train, and lookups
			// whose UQ decision sits inside the quantization error band
			// re-run on the retained float program (counted below). Its
			// bounded response keeps the error band narrow, so the
			// fallback rate stays low and most queries get the int8 path;
			// the wide-range potential oracle would sit in the band
			// constantly and is better left on float.
			Quantized: spec.name == "tissue",
		})
		if err := w.Pretrain(design); err != nil {
			panic(err)
		}
		if err := fl.Register(spec.name, w); err != nil {
			panic(err)
		}
		backends[spec.name] = w
		fmt.Printf("  %-10s shards(kd cuts %v) sizes %v\n", spec.name, cuts, w.ShardSizes())
	}

	fmt.Println("\nPhase 2: concurrent load, all tenants through one dispatch plane")
	const (
		clientsPerTenant = 4
		queriesPerClient = 2000
	)
	var wg sync.WaitGroup
	var served, shed atomic.Int64
	t0 := time.Now()
	for ti, spec := range specs {
		for c := 0; c < clientsPerTenant; c++ {
			wg.Add(1)
			go func(name string, seed uint64) {
				defer wg.Done()
				crng := repro.NewRand(seed)
				x := make([]float64, 2)
				y := make([]float64, 1)
				std := make([]float64, 1)
				for i := 0; i < queriesPerClient; i++ {
					x[0] = crng.Range(-1, 1)
					x[1] = crng.Range(-1, 1)
					_, err := fl.QueryInto(name, x, y, std) // zero-alloc steady state
					switch err {
					case nil:
						served.Add(1)
					case repro.ErrTenantOverloaded:
						shed.Add(1) // bounded admission: back off, retry later
					default:
						panic(err)
					}
				}
			}(spec.name, uint64(1000*ti+c))
		}
	}
	wg.Wait()
	elapsed := time.Since(t0)
	fmt.Printf("  %d queries served (+%d shed by admission) in %v — %.0f q/s total\n",
		served.Load(), shed.Load(), elapsed.Round(time.Millisecond),
		float64(served.Load())/elapsed.Seconds())
	fmt.Printf("  %-10s %12s %8s %12s %12s %10s %10s\n", "tenant", "queries/s", "batch", "p50", "p99", "staleness", "quant")
	for _, name := range fl.Tenants() {
		st, _ := fl.TenantStats(name)
		quant := "float"
		if st.QuantQueries > 0 {
			// int8-served lookups and the share re-run on the float
			// program because quantization error could have flipped the
			// UQ accept/reject decision.
			quant = fmt.Sprintf("%.1f%% fb", 100*float64(st.QuantFallbacks)/float64(st.QuantQueries))
		}
		fmt.Printf("  %-10s %12.0f %8.1f %12v %12v %10d %10s\n",
			name, st.QPS, st.MeanBatch, st.P50.Round(time.Microsecond), st.P99.Round(time.Microsecond), st.Staleness, quant)
	}

	fmt.Println("\nPhase 3: the epi oracle drifts — ingested residuals trip an adaptive refit")
	// A new data feed arrives whose responses the published epi model no
	// longer explains (the oracle moved): Ingest tracks each sample's
	// residual against the published model, and once the EWMA exceeds
	// DriftFactor × the model's own training residual, the shard is
	// marked drifted and RefitStale retrains it — no RetrainEvery wait.
	epi := backends["epi"]
	shifted := repro.NewMatrix(120, 2)
	shiftedY := repro.NewMatrix(120, 1)
	for i := 0; i < shifted.Rows; i++ {
		x := []float64{rng.Range(-1, 1), rng.Range(-1, 1)}
		shifted.Set(i, 0, x[0])
		shifted.Set(i, 1, x[1])
		shiftedY.Set(i, 0, specs[2].f(x)[0]+1.5) // the drifted regime
	}
	if err := epi.Ingest(shifted, shiftedY); err != nil {
		panic(err)
	}
	for si, st := range epi.Status() {
		fmt.Printf("  epi shard %d: drifted=%v ratio=%.1f stale=%d gen=%d\n", si, st.Drifted, st.DriftRatio, st.Stale, st.Generation)
	}
	fmt.Printf("  RefitStale spawned %d refits", epi.RefitStale())
	if err := epi.Wait(); err != nil {
		panic(err)
	}
	drained := true
	for _, st := range epi.Status() {
		drained = drained && !st.Drifted
	}
	fmt.Printf("; after Wait all drift cleared: %v\n", drained)

	fmt.Println("\nPhase 4: deregister 'tissue' mid-traffic; neighbours keep serving")
	var tissueErrs, potServed atomic.Int64
	wg.Add(2)
	go func() {
		defer wg.Done()
		crng := repro.NewRand(777)
		x := make([]float64, 2)
		y := make([]float64, 1)
		std := make([]float64, 1)
		for i := 0; i < 2000; i++ {
			x[0], x[1] = crng.Range(-1, 1), crng.Range(-1, 1)
			if _, err := fl.QueryInto("tissue", x, y, std); err != nil {
				tissueErrs.Add(1) // ErrUnknownTenant after the drain
			}
		}
	}()
	go func() {
		defer wg.Done()
		crng := repro.NewRand(778)
		x := make([]float64, 2)
		y := make([]float64, 1)
		std := make([]float64, 1)
		for i := 0; i < 2000; i++ {
			x[0], x[1] = crng.Range(-1, 1), crng.Range(-1, 1)
			if _, err := fl.QueryInto("potential", x, y, std); err != nil {
				panic(err) // the neighbour must be untouched
			}
			potServed.Add(1)
		}
	}()
	time.Sleep(2 * time.Millisecond)
	if err := fl.Deregister("tissue"); err != nil {
		panic(err)
	}
	wg.Wait()
	fmt.Printf("  tissue: %d queries bounced after graceful drain; potential served all %d\n",
		tissueErrs.Load(), potServed.Load())
	fmt.Printf("  remaining tenants: %v\n", fl.Tenants())

	fmt.Println("\nPhase 5: the same fleet, served over the wire — and surviving a server restart")
	// One dispatch plane, now network-visible: the wire server decodes
	// frames into pooled buffers and feeds the same per-tenant
	// coalescers, so concurrent remote callers gather into the same
	// micro-batches the in-process callers used. The client is a small
	// connection pool with automatic reconnect, retry and per-tenant
	// circuit breaking; deadline/admission sheds and outages come back
	// as typed errors — never hangs, never silent drops.
	srv := repro.NewWireServer(repro.WireServerConfig{Fleet: fl})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go srv.Serve(ln)
	wireAddr := ln.Addr().String()
	cl, err := repro.DialWireResilient(wireAddr, repro.WireResilientConfig{Conns: 2})
	if err != nil {
		panic(err)
	}
	defer cl.Close()
	res, err := cl.Query("potential", []float64{0.25, -0.5}, time.Time{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("  remote query: potential(0.25,-0.5) = %.4f (src=%v)\n", res.Y[0], res.Src)
	// A request whose deadline already passed is shed at admission with
	// an explicit status.
	if _, err := cl.Query("potential", []float64{0, 0}, time.Now().Add(-time.Millisecond)); errors.Is(err, repro.ErrWireExpired) {
		fmt.Println("  expired deadline: shed with ErrWireExpired before reaching the backend")
	}
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			crng := repro.NewRand(seed)
			x, y, std := make([]float64, 2), make([]float64, 1), make([]float64, 1)
			for i := 0; i < 500; i++ {
				x[0], x[1] = crng.Range(-1, 1), crng.Range(-1, 1)
				if _, err := cl.QueryInto("epi", x, y, std, time.Time{}); err != nil && !errors.Is(err, repro.ErrWireRetry) {
					panic(err)
				}
			}
		}(uint64(500 + c))
	}
	wg.Wait()
	ws := srv.Stats()
	fmt.Printf("  wire: %d conns, %d requests over %d flushes (%.1f responses/syscall)\n",
		ws.Conns, ws.Requests, ws.Flushes, float64(ws.Responses)/float64(max(ws.Flushes, 1)))

	srv.Close() // hard restart: every pooled connection dies mid-stream
	typed := 0
	for i := 0; i < 5; i++ {
		if _, err := cl.Query("epi", []float64{0.1, 0.2}, time.Now().Add(50*time.Millisecond)); err != nil &&
			(errors.Is(err, repro.ErrWireConnLost) || errors.Is(err, repro.ErrWireNoConn)) {
			typed++
		}
	}
	srv2 := repro.NewWireServer(repro.WireServerConfig{Fleet: fl})
	ln2, err := net.Listen("tcp", wireAddr)
	if err != nil {
		panic(err)
	}
	go srv2.Serve(ln2)
	defer srv2.Close()
	var back time.Duration
	for t0 := time.Now(); ; back = time.Since(t0) {
		if _, err := cl.Query("epi", []float64{0.1, 0.2}, time.Now().Add(100*time.Millisecond)); err == nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	rst := cl.Stats()
	fmt.Printf("  outage: %d/5 queries failed with typed errors (no hangs, no silent drops)\n", typed)
	fmt.Printf("  recovered %v after restart: %d/%d connections live, %d reconnects, %d retries\n",
		back.Round(time.Millisecond), rst.Live, rst.Conns, rst.Reconnects, rst.Retries)

	fmt.Println("\nPhase 6: dispatch tier — two workers, consistent-hash placement, warm failover")
	// The tiers above scale one process. The dispatch tier scales out:
	// worker processes each run their own fleet + artifact registry, and a
	// router in front places tenants across them by consistent hashing,
	// splicing query frames through without ever decoding a row. The
	// router mirrors every generation the workers publish; when a worker
	// dies mid-traffic, its tenants rehash onto survivors and warm-start
	// from the mirrored artifacts — zero retraining, proven here by the
	// survivor's oracle-run counter staying flat across the failover.
	dir, err := os.MkdirTemp("", "fleet-routed-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	oracleFns := map[string]func([]float64) []float64{}
	for _, spec := range specs {
		oracleFns[spec.name] = spec.f
	}
	wa := startRoutedWorker(filepath.Join(dir, "a"), 1, oracleFns)
	wb := startRoutedWorker(filepath.Join(dir, "b"), 2, oracleFns)
	mirror, err := repro.OpenRegistry(repro.RegistryConfig{Dir: filepath.Join(dir, "mirror")})
	if err != nil {
		panic(err)
	}
	defer mirror.Close()
	names := []string{"potential", "tissue", "epi"}
	rt, err := repro.NewWireRouter(repro.WireRouterConfig{
		Workers:  []string{wa.addr, wb.addr},
		Registry: mirror,
		Tenants:  names,
	})
	if err != nil {
		panic(err)
	}
	defer rt.Close()
	lnr, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go rt.Serve(lnr)
	rrc, err := repro.DialWireResilient(lnr.Addr().String(), repro.WireResilientConfig{Conns: 2})
	if err != nil {
		panic(err)
	}
	defer rrc.Close()

	// Wait until every tenant serves through the router and the mirror
	// holds each one's latest generation (the failover warm-start source).
	waitRouted := func(name string) time.Duration {
		t0 := time.Now()
		for {
			if _, err := rrc.Query(name, []float64{0.2, -0.1}, time.Now().Add(time.Second)); err == nil {
				return time.Since(t0)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for _, name := range names {
		waitRouted(name)
	}
	for _, name := range names {
		for {
			if g, ok := mirror.CurrentGeneration(repro.RegistryShardKey(name, 0)); ok && g >= 1 {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	pl := rt.Placements()
	fmt.Printf("  placed: potential→%s  tissue→%s  epi→%s\n", pl["potential"], pl["tissue"], pl["epi"])

	victim, survivor := wa, wb
	if pl["potential"] == wb.addr {
		victim, survivor = wb, wa
	}
	survivorRuns := survivor.runs.Load()
	fmt.Printf("  killing %s (owner of 'potential') under live traffic…\n", victim.addr)
	victim.close()
	reover := waitRouted("potential")
	rts := rt.Stats()
	fmt.Printf("  failover: 'potential' back in %v at %s (%d rehashes, %d warm starts)\n",
		reover.Round(time.Millisecond), rt.Placements()["potential"], rts.Rehashes, rts.WarmStarts)
	fmt.Printf("  survivor oracle runs during failover: %d — the moved tenants warm-started "+
		"from mirrored artifacts, zero retraining\n", survivor.runs.Load()-survivorRuns)
	if st, err := survivor.fl.TenantStats("potential"); err == nil {
		fmt.Printf("  survivor placement: source=%s generation=%d shards-warmed=%d\n",
			st.PlacementSource, st.PlacementGeneration, st.PlacementWarmShards)
	}
	survivor.close()
}

// routedWorker is one phase-6 worker "process" in miniature: its own
// fleet, artifact registry and wire server with the router's placement
// hooks installed, plus an oracle-run counter to prove failovers are
// warm.
type routedWorker struct {
	addr string
	fl   *repro.Fleet
	reg  *repro.Registry
	srv  *repro.WireServer
	runs atomic.Int64
}

func startRoutedWorker(dir string, seed uint64, oracles map[string]func([]float64) []float64) *routedWorker {
	reg, err := repro.OpenRegistry(repro.RegistryConfig{Dir: dir})
	if err != nil {
		panic(err)
	}
	w := &routedWorker{fl: repro.NewFleet(repro.FleetConfig{}), reg: reg}
	hooks := &repro.RouterWorkerHooks{
		Fleet:    w.fl,
		Registry: reg,
		Seed:     seed,
		Make: func(tenant string) (*repro.ShardedWrapper, error) {
			f, ok := oracles[tenant]
			if !ok {
				return nil, fmt.Errorf("no oracle for tenant %q", tenant)
			}
			oracle := repro.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
				w.runs.Add(1)
				return f(x), nil
			}}
			fac := repro.NewNNSurrogateFactory(2, 1, []int{16}, 0.1, repro.NewRand(seed), func(s *repro.NNSurrogate) {
				s.Epochs = 60
				s.MCPasses = 4
			})
			return repro.NewShardedWrapper(oracle, fac, repro.ShardedConfig{
				Router:          repro.HashRouter{Shards: 1},
				MinTrainSamples: 20,
				// Trust the surrogate outright: this phase demos placement
				// and warm failover, not UQ gating, and the potential
				// oracle's huge output range makes MC-dropout std spiky.
				UQThreshold: 1e9,
			}), nil
		},
		Pretrain: func(tenant string, sw *repro.ShardedWrapper) error {
			rng := repro.NewRand(seed ^ 0x7e57)
			design := repro.NewMatrix(80, 2)
			for i := 0; i < design.Rows; i++ {
				design.Set(i, 0, rng.Range(-1, 1))
				design.Set(i, 1, rng.Range(-1, 1))
			}
			return sw.Pretrain(design)
		},
	}
	w.srv = repro.NewWireServer(repro.WireServerConfig{Fleet: w.fl, Artifacts: hooks, Install: hooks})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	w.addr = ln.Addr().String()
	go w.srv.Serve(ln)
	return w
}

func (w *routedWorker) close() {
	w.srv.Close()
	w.fl.Close()
	w.reg.Close()
}
