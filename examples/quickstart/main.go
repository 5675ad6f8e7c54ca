// Quickstart: wrap an expensive simulation in the MLaroundHPC wrapper and
// watch the UQ gate shift traffic from simulation to surrogate while the
// ledger tracks effective performance (paper §I, §III-D).
package main

import (
	"fmt"
	"math"
	"time"

	"repro"
)

func main() {
	rng := repro.NewRand(1)

	// A toy "simulation": an analytic function with artificial cost, the
	// stand-in for a multi-hour HPC run.
	oracle := repro.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		time.Sleep(2 * time.Millisecond) // pretend this is expensive
		return []float64{math.Sin(3*x[0]) * math.Cos(2*x[1])}, nil
	}}

	// Every (re)fit trains a fresh surrogate from the factory, in the
	// background, while the previous one keeps serving. One shard is the
	// plain unsharded wrapper.
	factory := repro.NewNNSurrogateFactory(2, 1, []int{32, 32}, 0.1, rng.Split(), func(s *repro.NNSurrogate) {
		s.Epochs = 200
	})
	w := repro.NewShardedWrapper(oracle, factory, repro.ShardedConfig{
		Shards:          1,
		MinTrainSamples: 150,
		UQThreshold:     0.15,
	})

	fmt.Println("Phase 1: cold start — every query runs the simulation")
	for i := 0; i < 150; i++ {
		x := []float64{rng.Range(-1, 1), rng.Range(-1, 1)}
		if _, _, _, err := w.Query(x); err != nil {
			panic(err)
		}
	}
	// The 150th sample kicked off the first fit; wait for it to publish.
	if err := w.Wait(); err != nil {
		panic(err)
	}
	fmt.Printf("  after %d queries: %v\n\n", w.TrainingSetSize(), w.Ledger())

	fmt.Println("Phase 2: trained — confident queries are answered by the surrogate")
	surrogateHits := 0
	const phase2 = 400
	for i := 0; i < phase2; i++ {
		x := []float64{rng.Range(-1, 1), rng.Range(-1, 1)}
		_, src, _, err := w.Query(x)
		if err != nil {
			panic(err)
		}
		if src == repro.FromSurrogate {
			surrogateHits++
		}
	}
	led := w.Ledger()
	fmt.Printf("  surrogate served %d/%d queries (%.0f%%)\n", surrogateHits, phase2,
		100*float64(surrogateHits)/phase2)
	fmt.Printf("  %v\n\n", led.String())

	fmt.Println("Effective performance (paper §III-D formula on measured times):")
	fmt.Printf("  Tseq=%v Tlookup=%v Tlearn/sample=%v\n",
		led.MeanSimTime(), led.MeanLookupTime(), led.MeanLearnTimePerSample())
	fmt.Printf("  measured effective speedup S = %.2f\n", led.EffectiveSpeedup(1))
	fmt.Printf("  asymptotic limit Tseq/Tlookup = %.0f\n",
		led.MeanSimTime().Seconds()/led.MeanLookupTime().Seconds())
}
