// Sharded serving: the stall-free MLaroundHPC runtime under load. An
// expensive "simulation" is wrapped in a ShardedWrapper — the input space
// is hash-partitioned across shards, each shard serves from a published
// surrogate while background refits train the next generation on fresh
// oracle results, and UQ-rejected batch rows fan out over a bounded oracle
// worker pool. Concurrent clients hammer the wrapper throughout; the
// latency histogram shows retraining never freezes serving. A final
// high-QPS phase runs the same traffic through the adaptive micro-batch
// coalescer (serve.NewCoalescer) with the timer-driven auto-refitter keeping
// shards fresh, comparing direct per-query serving with coalesced
// serving.
package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

func main() {
	rng := xrand.New(7)

	// The "simulation": an analytic surface with artificial latency, the
	// stand-in for an external HPC run. It is latency-bound, so the
	// oracle worker pool overlaps runs even on one core.
	oracle := core.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		time.Sleep(500 * time.Microsecond)
		return []float64{math.Sin(3*x[0])*math.Cos(2*x[1]) + 0.3*x[0]}, nil
	}}

	// One hidden layer with dropout feeding the output: the canonical
	// MC-dropout serving shape, which the batched UQ path runs as a
	// single fused panel matmul per micro-batch. MaxBatch matches the
	// coalescer's micro-batch size so every dispatch is one fused pass.
	factory := core.NewNNSurrogateFactory(2, 1, []int{48}, 0.1, rng, func(s *core.NNSurrogate) {
		s.Epochs = 150
		s.MCPasses = 10
		s.MaxBatch = 64
	})
	w := core.NewShardedWrapper(oracle, factory, core.ShardedConfig{
		Shards:          2,
		MinTrainSamples: 40, // per shard
		RetrainEvery:    60, // refit a shard in the background every 60 fresh samples
		UQThreshold:     0.35,
		OracleWorkers:   8,
		// Bounded retention: each shard keeps a sliding window of its most
		// recent samples, so background refits stay O(window) no matter
		// how long the server runs.
		Retention: core.Retention{Policy: core.RetainWindow, MaxSamples: 400},
	})

	fmt.Println("Phase 1: pretrain — oracle fan-out fills all shards in parallel")
	design := tensor.NewMatrix(240, 2)
	for i := 0; i < design.Rows; i++ {
		design.Set(i, 0, rng.Range(-1, 1))
		design.Set(i, 1, rng.Range(-1, 1))
	}
	t0 := time.Now()
	if err := w.Pretrain(design); err != nil {
		panic(err)
	}
	fmt.Printf("  %d samples across shards %v in %v\n\n", w.TrainingSetSize(), w.ShardSizes(), time.Since(t0))

	fmt.Println("Phase 2: serve under load while shards keep retraining in the background")
	const (
		clients        = 4
		queriesPerGoro = 400
	)
	var surrogateHits, simulations atomic.Int64
	latencies := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int, seed uint64) {
			defer wg.Done()
			crng := xrand.New(seed)
			for i := 0; i < queriesPerGoro; i++ {
				// Mostly in-distribution traffic; occasional novel points
				// fail the UQ gate, run the simulation and feed the
				// training sets — which triggers background refits.
				scale := 1.0
				if crng.Float64() < 0.05 {
					scale = 1.8
				}
				x := []float64{scale * crng.Range(-1, 1), scale * crng.Range(-1, 1)}
				q0 := time.Now()
				_, src, _, err := w.Query(x)
				latencies[id] = append(latencies[id], time.Since(q0))
				if err != nil {
					panic(err)
				}
				if src == core.FromSurrogate {
					surrogateHits.Add(1)
				} else {
					simulations.Add(1)
				}
			}
		}(c, uint64(100+c))
	}
	wg.Wait()
	if err := w.Wait(); err != nil {
		panic(err)
	}

	var all []time.Duration
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration { return all[int(p*float64(len(all)-1))] }

	total := int64(clients * queriesPerGoro)
	led := w.Ledger()
	fmt.Printf("  %d queries from %d clients: %d surrogate (%.0f%%), %d simulated\n",
		total, clients, surrogateHits.Load(),
		100*float64(surrogateHits.Load())/float64(total), simulations.Load())
	fmt.Printf("  query latency p50=%v p90=%v p99=%v (refits ran concurrently: %d fits)\n",
		pct(0.50), pct(0.90), pct(0.99), led.NTrainingRuns)
	fmt.Printf("  final shard sizes %v, training set %d (window-bounded)\n\n", w.ShardSizes(), w.TrainingSetSize())

	fmt.Println("Phase 3: high-QPS load generator — direct vs coalesced serving")
	// The auto-refitter replaces query-path retrain triggers: stale
	// shards refresh on a timer while the coalescer gathers concurrent
	// single-point queries into fused micro-batches.
	w.StartAutoRefit(20 * time.Millisecond)
	defer w.StopAutoRefit()
	handle := serve.NewCoalescer(w, serve.Config{MaxBatch: 64})
	defer handle.Close()

	const loadClients = 32
	loadgen := func(label string, query func(rng *xrand.Rand) error) {
		var wg sync.WaitGroup
		var n atomic.Int64
		t0 := time.Now()
		for cID := 0; cID < loadClients; cID++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				crng := xrand.New(seed)
				for i := 0; i < 1500; i++ {
					if err := query(crng); err != nil {
						panic(err)
					}
					n.Add(1)
				}
			}(uint64(7000 + cID))
		}
		wg.Wait()
		dt := time.Since(t0)
		fmt.Printf("  %-10s %6d queries from %d clients in %8v  → %8.0f queries/s\n",
			label, n.Load(), loadClients, dt.Round(time.Millisecond),
			float64(n.Load())/dt.Seconds())
	}
	point := func(crng *xrand.Rand) []float64 {
		return []float64{crng.Range(-1, 1), crng.Range(-1, 1)}
	}
	loadgen("direct", func(crng *xrand.Rand) error {
		_, _, _, err := w.Query(point(crng))
		return err
	})
	loadgen("coalesced", func(crng *xrand.Rand) error {
		_, err := handle.Query(point(crng))
		return err
	})
	st := handle.Stats()
	fmt.Printf("  coalescer gathered %d queries into %d micro-batches (mean batch %.1f)\n",
		st.Queries, st.Batches, st.MeanBatch())
	for si, shard := range w.Status() {
		fmt.Printf("  shard %d: %d samples, staleness %d, generation %d\n",
			si, shard.Samples, shard.Stale, shard.Generation)
	}
	fmt.Println()

	fmt.Println("Ledger (paper §III-D accounting):")
	led = w.Ledger()
	fmt.Printf("  %v\n", led)
	fmt.Printf("  measured effective speedup S = %.2f\n", led.EffectiveSpeedup(1))
}
