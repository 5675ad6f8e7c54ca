package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/netserve"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// healthMux serves h, and net/http/pprof's profiles of the running
// process under /debug/pprof/: go tool pprof reaches a live server without
// a rebuild.
func healthMux(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	return mux
}

// demoOracles are the analytic stand-ins the serve subcommand offers as
// wire tenants: the same three workload shapes the fleet example uses.
var demoOracles = map[string]func(x []float64) []float64{
	"potential": func(x []float64) []float64 {
		r := 0.6 + 0.5*(x[0]+1)
		ir6 := math.Pow(r, -6)
		return []float64{ir6*ir6 - ir6 + 0.1*x[1]}
	},
	"tissue": func(x []float64) []float64 {
		return []float64{math.Exp(-2*math.Abs(x[0])) * math.Cos(3*x[1])}
	},
	"epi": func(x []float64) []float64 {
		r0 := 1 + 1.5*(x[0]+1)
		return []float64{math.Tanh(r0-1) * (0.5 + 0.4*x[1])}
	},
}

// runServe is the `learnhpc serve` subcommand: pretrain one surrogate
// per requested tenant, put the fleet on a TCP wire, expose the
// health/readiness/stats endpoints, and drain cleanly on SIGINT/SIGTERM.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "wire listen address")
	health := fs.String("health", "127.0.0.1:9091", "health/stats HTTP address (empty disables)")
	tenants := fs.String("tenants", "potential,tissue,epi", "comma-separated demo tenants to register")
	maxBatch := fs.Int("max-batch", 64, "per-tenant coalescer batch bound")
	regDir := fs.String("registry", "", "artifact registry directory: warm-start tenants from it and persist every published generation (empty disables)")
	rollback := fs.Float64("rollback-factor", 0, "drift ratio that auto-rolls a tenant shard back one registry generation (0 = off; needs -registry)")
	fs.Parse(args)
	names := strings.Split(*tenants, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	if err := checkServe(names, *regDir, *rollback); err != nil {
		fmt.Fprintf(os.Stderr, "learnhpc serve: %v\n", err)
		os.Exit(2)
	}

	var reg *registry.Registry
	if *regDir != "" {
		var err error
		if reg, err = registry.Open(registry.Config{Dir: *regDir}); err != nil {
			fmt.Fprintf(os.Stderr, "learnhpc serve: registry: %v\n", err)
			os.Exit(1)
		}
		defer reg.Close()
	}

	fl := fleet.New(fleet.Config{
		Coalescer: serve.Config{MaxBatch: *maxBatch},
	})
	defer fl.Close()
	rng := xrand.New(7)
	for _, name := range names {
		f := demoOracles[name]
		oracle := core.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) { return f(x), nil }}
		fac := core.NewNNSurrogateFactory(2, 1, []int{32}, 0.1, rng, func(s *core.NNSurrogate) {
			s.Epochs = 120
			s.MCPasses = 8
		})
		scfg := core.ShardedConfig{
			Router:          core.HashRouter{Shards: 2},
			MinTrainSamples: 40,
			UQThreshold:     10, // serve from the surrogate; this is a wire demo
		}
		if *rollback > 0 {
			// The drift watch compares each shard's residual EWMA against
			// its publish-time baseline; the wrapper must track it.
			scfg.DriftFactor = *rollback / 2
		}
		w := core.NewShardedWrapper(oracle, fac, scfg)
		if err := fl.Register(name, w); err != nil {
			fmt.Fprintf(os.Stderr, "learnhpc serve: register %s: %v\n", name, err)
			os.Exit(1)
		}
		warmed := 0
		if reg != nil {
			var err error
			warmed, err = fl.BindRegistry(name, fleet.RegistryConfig{
				Registry:       reg,
				RollbackFactor: *rollback,
				OnError: func(err error) {
					fmt.Fprintf(os.Stderr, "learnhpc serve: %v\n", err)
				},
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "learnhpc serve: bind registry %s: %v\n", name, err)
				os.Exit(1)
			}
		}
		if warmed == w.NumShards() {
			// Every shard restored a durable generation: serve immediately,
			// zero retraining.
			fmt.Printf("tenant %-10s warm-started from registry (%d shards)\n", name, warmed)
			continue
		}
		design := tensor.NewMatrix(160, 2)
		for i := 0; i < design.Rows; i++ {
			design.Set(i, 0, rng.Range(-1, 1))
			design.Set(i, 1, rng.Range(-1, 1))
		}
		if err := w.Pretrain(design); err != nil {
			fmt.Fprintf(os.Stderr, "learnhpc serve: pretrain %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("tenant %-10s pretrained and registered\n", name)
	}

	srv := netserve.NewServer(netserve.Config{Fleet: fl})
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	fmt.Printf("wire: serving %v on %s\n", fl.Tenants(), *addr)

	if *health != "" {
		go func() {
			h := healthMux(&netserve.Health{Fleet: fl, Server: srv})
			if err := http.ListenAndServe(*health, h); err != nil {
				fmt.Fprintf(os.Stderr, "learnhpc serve: health endpoint: %v\n", err)
			}
		}()
		fmt.Printf("http: /healthz /readyz /statsz /metricsz /debug/pprof/ on %s\n", *health)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		// Flip /readyz to not-ready first so load balancers stop routing
		// here, give them a beat to notice, then close the listeners.
		fmt.Printf("\n%v: draining (in-flight requests get their responses)\n", s)
		srv.BeginDrain()
		time.Sleep(200 * time.Millisecond)
		srv.Close()
		st := srv.Stats()
		fmt.Printf("served %d requests over %d connections (%d proto errors)\n",
			st.Requests, st.Conns, st.ProtoErrors)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "learnhpc serve: %v\n", err)
		os.Exit(1)
	}
}

// checkServe rejects, before the registry opens or a tenant trains, a
// -tenants list with an unknown, empty or repeated name, and a
// -rollback-factor that could not do what it says: a negative or
// non-finite one, or a positive one without the -registry its rollbacks
// step back through (it would arm drift refits and never a rollback).
func checkServe(tenants []string, regDir string, rollback float64) error {
	seen := map[string]bool{}
	for _, name := range tenants {
		if _, ok := demoOracles[name]; !ok {
			return fmt.Errorf("-tenants: unknown tenant %q (have: potential, tissue, epi)", name)
		}
		if seen[name] {
			return fmt.Errorf("-tenants: %q is listed twice", name)
		}
		seen[name] = true
	}
	if rollback < 0 || math.IsNaN(rollback) || math.IsInf(rollback, 0) {
		return fmt.Errorf("-rollback-factor %v: need 0 (off) or a positive drift ratio", rollback)
	}
	if rollback > 0 && regDir == "" {
		return fmt.Errorf("-rollback-factor %v needs -registry: a rollback steps back one registry generation", rollback)
	}
	return nil
}

// checkLoad rejects a loadtest that would send nothing, or could not
// start its callers: fewer than one worker, or no time to drive load.
func checkLoad(workers int, dur time.Duration) error {
	if workers < 1 {
		return fmt.Errorf("-workers %d: need at least 1", workers)
	}
	if dur <= 0 {
		return fmt.Errorf("-dur %v: need a positive duration", dur)
	}
	return nil
}

// runLoadtest is the `learnhpc loadtest` subcommand: a closed-loop poke at
// a running serve/route/worker address, printing outcome counts and the
// latency histogram. Measured load generation is `go run ./benchmark`.
func runLoadtest(args []string) {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "wire server or router address")
	tenants := fs.String("tenants", "potential,tissue,epi", "comma-separated tenants to spread queries across")
	dur := fs.Duration("dur", 5*time.Second, "how long to drive load")
	workers := fs.Int("workers", 64, "concurrent closed-loop callers")
	fs.Parse(args)
	if err := checkLoad(*workers, *dur); err != nil {
		fmt.Fprintf(os.Stderr, "learnhpc loadtest: %v\n", err)
		os.Exit(2)
	}

	names := strings.Split(*tenants, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	cl, err := netserve.DialResilient(*addr, netserve.ResilientConfig{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "learnhpc loadtest: %v\n", err)
		os.Exit(1)
	}
	defer cl.Close()
	start := time.Now()
	c := drive(cl, names, *workers, *dur)
	el := time.Since(start)
	fmt.Printf("loadtest (closed loop, %d workers) over %v:\n  ok=%d shed=%d failed=%d, %.0f q/s\n  latency %s\n",
		*workers, el.Round(time.Millisecond), c.ok.Load(), c.shed.Load(), c.failed.Load(), float64(c.ok.Load())/el.Seconds(), c.lat.String())
	if c.failed.Load() > 0 {
		os.Exit(1)
	}
}

// loadCounts is one loadtest's outcome: queries answered, shed and
// failed, and the latency of the answered ones.
type loadCounts struct {
	ok, shed, failed atomic.Int64
	lat              stats.Hist
}

// openBreakerPause is how long a loadtest caller waits after its query was
// shed by an open circuit breaker: the breaker answers locally, so a
// caller that retried at once would spin a CPU on sheds until the
// breaker's cooldown lets a probe through.
const openBreakerPause = 10 * time.Millisecond

// drive runs workers closed-loop callers against cl for dur, each firing
// its next query as the previous one returns, round-robin over tenants,
// and pausing after an open-breaker shed. Only answered queries enter the
// latency histogram: a failure's round trip is not a serving latency.
func drive(cl *netserve.ResilientClient, tenants []string, workers int, dur time.Duration) *loadCounts {
	c := new(loadCounts)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w) + 1)
			x, y, std := make([]float64, 2), make([]float64, 8), make([]float64, 8)
			for i := w; time.Since(start) < dur; i++ {
				x[0], x[1] = rng.Range(-1, 1), rng.Range(-1, 1)
				t0 := time.Now()
				_, err := cl.QueryInto(tenants[i%len(tenants)], x, y, std, time.Time{})
				switch {
				case err == nil:
					c.lat.RecordSince(t0)
					c.ok.Add(1)
				case errors.Is(err, netserve.ErrRetry), errors.Is(err, netserve.ErrExpired):
					c.shed.Add(1)
				default:
					c.failed.Add(1)
					if errors.Is(err, netserve.ErrCircuitOpen) {
						time.Sleep(openBreakerPause)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return c
}
