package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// learn_loop: the paper's MLaroundHPC loop, in process. Two clients
// issue 64-row batches against one ShardedWrapper whose UQ threshold
// *binds*: rows the surrogate is unsure of go to a synthetic oracle of
// fixed arithmetic cost and are ingested; refits run continuously in the
// background (sample-count triggers plus the auto-refit timer) and every
// generation they publish goes through the registry's fsync path; the
// input distribution shifts at the half-way mark. What a user sees is
// time to a solution of stated accuracy: rows answered per second with
// the oracle fallbacks and the training paid for, and answer_rmse. core's
// gate/ingest/refit, nn.Fit and registry.Publish do the work; serve,
// fleet, netserve and router are idle.
const (
	learnBatch       = 64
	learnShards      = 4
	learnUQThreshold = 0.05
	// learnOracleIters sizes the oracle: a counted loop of dependent
	// multiply-adds, about 20 µs. A count, not a sleep, so its cost is
	// CPU the loop competes for, as a simulation's would be.
	learnOracleIters = 16000
	learnEpochs      = 40
	learnWindowRows  = 1024 // per shard, sliding
	learnRetrain     = 256  // fresh oracle rows per shard that make a refit due
	learnAutoRefit   = 100 * time.Millisecond
	learnDesignRows  = 40000 // the offline campaign set-up runs through the oracle
	learnWarmups     = 32    // batches per client
)

// learnInput draws a row; phase 1 is the shifted distribution.
func learnInput(rng *xrand.Rand, x []float64, phase int) {
	x[0] = rng.Range(-2, 0) + 2*float64(phase)
	x[1] = rng.Range(-1, 1)
}

var errOracleDiverged = errors.New("synthetic oracle diverged")

func learnOracle() core.Oracle {
	return core.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		a := x[0]
		for i := 0; i < learnOracleIters; i++ {
			a = a*0.999999 + 1e-7
		}
		if a > 1e9 { // keeps the loop live; cannot happen
			return nil, errOracleDiverged
		}
		return []float64{servingTruth(x)}, nil
	}}
}

// newLearnWrapper builds the learn_loop tenant; the probes build the same
// shape with a loose threshold and no sample-count trigger, so that a
// probe refit is not chased by follow-ups.
func newLearnWrapper(oracle core.Oracle, threshold float64, retrainEvery int) *core.ShardedWrapper {
	// Unlike the serve-only tenants, this one publishes hundreds of
	// generations per run, and what must be steady is their average: each
	// generation draws its own initialisation, so that successive models
	// are independent draws and a window averages over them. (With one
	// fixed seed, successive generations — same start, nearly the same
	// data — are near copies, and a lucky or unlucky model persists for
	// seconds.)
	factory := core.NewNNSurrogateFactory(2, 1, []int{24}, 0.1, xrand.New(provisionSeed+0x1ea4), func(s *core.NNSurrogate) {
		s.Epochs = learnEpochs
		s.MCPasses = servingMCPasses
	})
	return core.NewShardedWrapper(oracle, factory, core.ShardedConfig{
		Shards: learnShards, MinTrainSamples: 10, UQThreshold: threshold,
		RetrainEvery:  retrainEvery,
		OracleWorkers: runtime.GOMAXPROCS(0),
		Retention:     core.Retention{Policy: core.RetainWindow, MaxSamples: learnWindowRows},
	})
}

type learnWL struct {
	e       *env
	prov    *provisioned
	w       *core.ShardedWrapper
	backend serve.Backend
	sloNS   int64
	base    coreBase
}

func setupLearnWL(e *env, sloNS int64) (stack, error) {
	p, err := openRegistry(e)
	if err != nil {
		return nil, err
	}
	oracle := learnOracle()
	if e.tr != nil {
		oracle = &timedOracle{oracle, e.tr.buf(spanOracle, 0)}
	}
	rng := xrand.New(provisionSeed ^ 0x1ea4)
	design := tensor.NewMatrix(learnDesignRows, 2)
	for i := 0; i < design.Rows; i++ {
		learnInput(rng, design.Row(i), 0)
	}
	t, err := provisionBatchTenant(e, p, "learn", 0, func() *core.ShardedWrapper { return newLearnWrapper(oracle, learnUQThreshold, learnRetrain) }, design)
	if err != nil {
		p.close()
		return nil, err
	}
	s := &learnWL{e: e, prov: p, w: t.w, backend: t.backend, sloNS: sloNS}
	warm := warmResult(learnBatch)
	s.drive(warm, 0, time.Now(), time.Time{}, learnWarmups)
	if warm.failed() != 0 {
		p.close()
		return nil, fmt.Errorf("warm-up: %d rows failed", warm.failed())
	}
	s.w.StartAutoRefit(learnAutoRefit)
	return s, nil
}

// drive runs the two clients until end (or for exactly n batches each
// when n > 0). The input distribution shifts half-way between start and
// end.
func (s *learnWL) drive(res *result, seed uint64, start, end time.Time, n int) {
	shift := start.Add(end.Sub(start) / 2)
	tallies := make([]tally, 2)
	var wg sync.WaitGroup
	for c := range tallies {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			t.rec.w = res.win
			rng := xrand.New(seed + uint64(c)*0x9e3779b97f4a7c15)
			xs := tensor.NewMatrix(learnBatch, 2)
			out := make([]core.BatchResult, learnBatch)
			want := make([]float64, 1)
			for i := 0; n == 0 || i < n; i++ {
				t0 := time.Now()
				if n == 0 && !t0.Before(end) {
					return
				}
				phase := 0
				if n == 0 && !t0.Before(shift) {
					phase = 1
				}
				for r := 0; r < xs.Rows; r++ {
					learnInput(rng, xs.Row(r), phase)
				}
				t0 = time.Now()
				t.attempted += learnBatch
				err := s.backend.QueryBatchInto(xs, out)
				t1 := time.Now()
				ns := int64(t1.Sub(t0))
				if err != nil {
					t.fails[failError] += learnBatch
					continue
				}
				t.rec.record(t1, ns)
				for r := range out {
					want[0] = servingTruth(xs.Row(r))
					t.batchRow(&out[r], ns <= s.sloNS, learnUQThreshold, want)
				}
				if s.e.tr != nil {
					t.roots = append(t.roots, rootSpan{t0, t1, 0})
				}
			}
		}(c)
	}
	wg.Wait()
	for i := range tallies {
		res.absorb(&tallies[i])
	}
}

func (s *learnWL) measure(seed uint64, d time.Duration) *result {
	s.base = coreSnapshot(s.prov, s.w)
	start := time.Now()
	res := &result{win: newWindows(start, d, batchWindow, learnBatch)}
	res.wall, res.cpu = res.win.measure(func() { s.drive(res, seed, start, start.Add(d), 0) })
	return res
}

func (s *learnWL) background() error {
	if err := s.prov.bg.get(); err != nil {
		return err
	}
	return s.w.Wait()
}

func (s *learnWL) close() {
	s.w.StopAutoRefit()
	// Refits still in flight publish into the registry; let them land
	// before it closes. Their failures were already collected by
	// background().
	_ = s.w.Wait()
	s.prov.close()
}

func (s *learnWL) layers(res *result, m metrics) error {
	coreLayers(s.e, res, m, []*core.ShardedWrapper{s.w}, s.base, s.prov)
	registryLayers(s.e, s.prov, "learn", m)
	// The probes want the machine to themselves.
	s.w.StopAutoRefit()
	if err := s.w.Wait(); err != nil {
		return err
	}
	if err := nnFitProbe(m); err != nil {
		return err
	}
	coreLearnProbes(m)
	return nil
}
