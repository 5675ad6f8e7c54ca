// Multi-tenant serving fleet: one dispatch plane for every surrogate.
// The paper's "learning everywhere" thesis puts an ML stand-in at every
// layer of an HPC workload; this example runs three of them — a
// pair-potential energy surface, a tissue-transport response and an
// epidemic peak calibrator — as named tenants of one fleet.Fleet in a
// single process. Each tenant is a sharded, double-buffered wrapper
// behind its own micro-batch coalescer; all three coalescers draw on the
// fleet's shared batch pool, admission is bounded per tenant, and the
// per-tenant stats (QPS, batch width, p99, staleness) come from one
// registry. A drifting oracle trips an adaptive refit, and a last phase
// deregisters a tenant mid-traffic: its in-flight queries drain
// gracefully while the neighbours keep serving.
//
// The same fleet on a TCP wire, with a server restart, is `learnhpc
// serve` and `learnhpc loadtest`; two workers behind a consistent-hash
// router with warm failover are `learnhpc worker` and `learnhpc route`
// (README "Dispatch tier").
package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// tenantSpec is one workload: a named analytic oracle with artificial
// latency standing in for the real simulation.
type tenantSpec struct {
	name string
	f    func(x []float64) []float64
}

func main() {
	rng := xrand.New(42)
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
	fl := fleet.New(fleet.Config{
		Coalescer:   serve.Config{MaxBatch: 32},
		MaxInFlight: 256,
	})
	defer fl.Close()

	backends := make(map[string]*core.ShardedWrapper)
	for _, spec := range specs {
		f := spec.f
		oracle := core.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
			time.Sleep(200 * time.Microsecond) // the "simulation" cost
			return f(x), nil
		}}
		factory := core.NewNNSurrogateFactory(2, 1, []int{32}, 0.1, rng, func(s *core.NNSurrogate) {
			s.Epochs = 120
			s.MCPasses = 8
			s.MaxBatch = 32
		})
		// The training design doubles as the routing distribution: the kd
		// cut points are auto-tuned to its quantiles, so each shard owns
		// an equal-mass slice of where queries actually land.
		design := tensor.NewMatrix(160, 2)
		for i := 0; i < design.Rows; i++ {
			design.Set(i, 0, rng.Range(-1, 1))
			design.Set(i, 1, rng.Range(-1, 1))
		}
		cuts := core.KDCutsFromSamples(design, 0, 2)
		w := core.NewShardedWrapper(oracle, factory, core.ShardedConfig{
			Router:          core.KDRouter{Dim: 0, Cuts: cuts},
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
				crng := xrand.New(seed)
				x := make([]float64, 2)
				y := make([]float64, 1)
				std := make([]float64, 1)
				for i := 0; i < queriesPerClient; i++ {
					x[0] = crng.Range(-1, 1)
					x[1] = crng.Range(-1, 1)
					_, err := fl.QueryInto(name, x, y, std) // zero-alloc steady state
					switch {
					case err == nil:
						served.Add(1)
					case errors.Is(err, fleet.ErrOverloaded):
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
	shifted := tensor.NewMatrix(120, 2)
	shiftedY := tensor.NewMatrix(120, 1)
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
		crng := xrand.New(777)
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
		crng := xrand.New(778)
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
}
