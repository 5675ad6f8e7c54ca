package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/netserve"
	"repro/internal/registry"
	"repro/internal/router"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// demoWrapper builds the sharded surrogate stack every routed demo
// tenant serves from; the tenant name picks its analytic oracle.
func demoWrapper(name string, seed uint64) (*core.ShardedWrapper, error) {
	f, ok := demoOracles[name]
	if !ok {
		return nil, fmt.Errorf("unknown tenant %q (have: potential, tissue, epi)", name)
	}
	rng := xrand.New(seed)
	oracle := core.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) { return f(x), nil }}
	fac := core.NewNNSurrogateFactory(2, 1, []int{32}, 0.1, rng, func(s *core.NNSurrogate) {
		s.Epochs = 120
		s.MCPasses = 8
	})
	return core.NewShardedWrapper(oracle, fac, core.ShardedConfig{
		Router:          core.HashRouter{Shards: 2},
		MinTrainSamples: 40,
		UQThreshold:     10, // serve from the surrogate; this is a wire demo
	}), nil
}

// runWorker is the `learnhpc worker` subcommand: a wire server that
// starts empty and serves whatever tenants a router places on it. A
// placement push either warm-starts the tenant from artifact bytes
// shipped over the wire (zero retraining) or constructs and pretrains it
// cold; every generation the worker publishes lands in its local
// registry, where routers mirror it for the next failover.
func runWorker(args []string) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9191", "wire listen address")
	regDir := fs.String("registry", "", "local artifact registry directory (required: placements replay through it)")
	seed := fs.Uint64("seed", 11, "surrogate initialization seed")
	fs.Parse(args)
	if *regDir == "" {
		fmt.Fprintln(os.Stderr, "learnhpc worker: -registry is required")
		os.Exit(2)
	}

	reg, err := registry.Open(registry.Config{Dir: *regDir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "learnhpc worker: registry: %v\n", err)
		os.Exit(1)
	}
	defer reg.Close()
	fl := fleet.New(fleet.Config{})
	defer fl.Close()

	hooks := &router.WorkerHooks{
		Fleet:    fl,
		Registry: reg,
		Make: func(tenant string) (*core.ShardedWrapper, error) {
			return demoWrapper(tenant, *seed)
		},
		Pretrain: func(tenant string, w *core.ShardedWrapper) error {
			rng := xrand.New(*seed ^ 0xbeef)
			design := tensor.NewMatrix(160, 2)
			for i := 0; i < design.Rows; i++ {
				design.Set(i, 0, rng.Range(-1, 1))
				design.Set(i, 1, rng.Range(-1, 1))
			}
			return w.Pretrain(design)
		},
		Logf: func(format string, a ...any) { fmt.Printf(format+"\n", a...) },
	}
	srv := netserve.NewServer(netserve.Config{Fleet: fl, Artifacts: hooks, Install: hooks})
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	fmt.Printf("worker: serving on %s (registry %s), awaiting placements\n", *addr, *regDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("\n%v: draining\n", s)
		srv.BeginDrain()
		time.Sleep(200 * time.Millisecond)
		srv.Close()
		st := srv.Stats()
		fmt.Printf("served %d requests over %d connections; tenants at exit: %v\n",
			st.Requests, st.Conns, fl.Tenants())
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "learnhpc worker: %v\n", err)
		os.Exit(1)
	}
}

// runRoute is the `learnhpc route` subcommand: the dispatch tier over a
// set of learnhpc-worker processes. Tenants place by consistent hashing,
// queries splice through without row decoding, and the router's mirror
// registry keeps every tenant's latest generation on hand so killing a
// worker fails its tenants over warm.
func runRoute(args []string) {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:9090", "frontend wire listen address")
	workersFlag := fs.String("workers", "127.0.0.1:9191,127.0.0.1:9192", "comma-separated worker wire addresses")
	tenants := fs.String("tenants", "potential,tissue,epi", "tenants to provision across the workers")
	mirrorDir := fs.String("mirror", "", "mirror registry directory (empty disables warm failover)")
	fs.Parse(args)

	var workers []string
	for _, a := range strings.Split(*workersFlag, ",") {
		if a = strings.TrimSpace(a); a != "" {
			workers = append(workers, a)
		}
	}
	cfg := router.Config{
		Workers: workers,
		Logf:    func(format string, a ...any) { fmt.Printf(format+"\n", a...) },
	}
	for _, t := range strings.Split(*tenants, ",") {
		if t = strings.TrimSpace(t); t != "" {
			cfg.Tenants = append(cfg.Tenants, t)
		}
	}
	if *mirrorDir != "" {
		mirror, err := registry.Open(registry.Config{Dir: *mirrorDir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "learnhpc route: mirror registry: %v\n", err)
			os.Exit(1)
		}
		defer mirror.Close()
		cfg.Registry = mirror
	}

	rt, err := router.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "learnhpc route: %v\n", err)
		os.Exit(1)
	}
	errc := make(chan error, 1)
	go func() { errc <- rt.ListenAndServe(*addr) }()
	fmt.Printf("route: frontend on %s over workers %v\n", *addr, workers)

	// Periodic placement report: watch tenants rehash live when a worker
	// dies or comes back.
	ticker := time.NewTicker(2 * time.Second)
	defer ticker.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	for {
		select {
		case <-ticker.C:
			pl := rt.Placements()
			names := make([]string, 0, len(pl))
			for n := range pl {
				names = append(names, n)
			}
			sort.Strings(names)
			var b strings.Builder
			for i, n := range names {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%s→%s", n, pl[n])
			}
			st := rt.Stats()
			fmt.Printf("route: %s | live=%d frames=%d retries=%d warm=%d cold=%d\n",
				b.String(), st.WorkersLive, st.Frames, st.Retries, st.WarmStarts, st.ColdStarts)
		case s := <-sig:
			fmt.Printf("\n%v: closing\n", s)
			rt.Close()
			st := rt.Stats()
			fmt.Printf("forwarded %d frames in %d bursts; %d rehashes, %d moves (%d warm, %d cold), %d retries\n",
				st.Frames, st.Bursts, st.Rehashes, st.Moves, st.WarmStarts, st.ColdStarts, st.Retries)
			return
		case err := <-errc:
			fmt.Fprintf(os.Stderr, "learnhpc route: %v\n", err)
			os.Exit(1)
		}
	}
}
