package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// batch_sweep: a design-sweep client, in process, no network. Two
// goroutines run side by side for the whole window, each looping
// 64-row QueryBatchInto calls on a wide net — one on a float-served
// tenant (this file), one on a Quantized tenant (wl_batch_int8.go) — so
// each path gets equal *time*, rows_per_s is the sum of the two rates
// and neither path drowns the other. Float calls outnumber int8 calls
// several to one, so latency_p50_us is a float batch and latency_p99_us
// an int8 batch. tensor and nn do nearly all the work; serve, fleet,
// netserve and router are idle.
const (
	wideIn, wideHidden, wideOut = 8, 128, 4
	wideMCPasses                = 16
	wideBatch                   = 64
	wideDesignRows              = 1536
	wideEpochs                  = 24
	wideUQThreshold             = 10.0
	wideWarmups                 = 8 // batches per goroutine
)

// wideTruth is the 8→4 map the wide tenants learn.
func wideTruth(x, y []float64) {
	for j := 0; j < wideOut; j++ {
		y[j] = math.Sin(x[j]+0.5*x[j+4]) + 0.25*x[(j+1)%wideIn]
	}
}

func wideInput(rng *xrand.Rand, x []float64) {
	for i := range x {
		x[i] = rng.Range(-1, 1)
	}
}

func newWideWrapper(quantized bool, epochs int) *core.ShardedWrapper {
	oracle := core.OracleFunc{In: wideIn, Out: wideOut, F: func(x []float64) ([]float64, error) {
		y := make([]float64, wideOut)
		wideTruth(x, y)
		return y, nil
	}}
	// Both tenants start from the same seed on the same design: the same
	// weights, one served in float, one in int8.
	factory := fixedFactory(wideIn, wideOut, []int{wideHidden, wideHidden}, provisionSeed+0xb47c, func(s *core.NNSurrogate) {
		s.Epochs = epochs
		s.MCPasses = wideMCPasses
	})
	return core.NewShardedWrapper(oracle, factory, core.ShardedConfig{
		Shards: 2, MinTrainSamples: 10, UQThreshold: wideUQThreshold,
		OracleWorkers: runtime.GOMAXPROCS(0), Quantized: quantized,
	})
}

func wideDesign() *tensor.Matrix {
	rng := xrand.New(provisionSeed ^ 0xb47c)
	m := tensor.NewMatrix(wideDesignRows, wideIn)
	for i := 0; i < m.Rows; i++ {
		wideInput(rng, m.Row(i))
	}
	return m
}

// batchTenant is one provisioned in-process tenant.
type batchTenant struct {
	name    string
	w       *core.ShardedWrapper
	backend serve.Backend
}

// provisionBatchTenant pretrains a tenant from scratch with every
// generation published, and proves a replica warm-starts from it.
func provisionBatchTenant(e *env, p *provisioned, name string, idx int, build func() *core.ShardedWrapper, design *tensor.Matrix) (*batchTenant, error) {
	w := build()
	w.SetPublishHook(e.publishHook(p, name))
	if err := w.Pretrain(design); err != nil {
		return nil, fmt.Errorf("pretrain %s: %w", name, err)
	}
	if err := p.warmReplica(name, build(), provisionSeed+uint64(idx)); err != nil {
		return nil, err
	}
	return &batchTenant{name, w, e.backend(w, idx)}, p.bg.get()
}

type batchWL struct {
	e       *env
	prov    *provisioned
	tenants [2]*batchTenant // float, int8
	sloNS   int64
	base    coreBase
}

func setupBatchWL(e *env, sloNS int64) (stack, error) {
	p, err := openRegistry(e)
	if err != nil {
		return nil, err
	}
	s := &batchWL{e: e, prov: p, sloNS: sloNS}
	design := wideDesign()
	for i, q := range []bool{false, true} {
		q := q
		name := [2]string{"sweep-float", "sweep-int8"}[i]
		if s.tenants[i], err = provisionBatchTenant(e, p, name, i, func() *core.ShardedWrapper { return newWideWrapper(q, wideEpochs) }, design); err != nil {
			p.close()
			return nil, err
		}
	}
	if q, _ := s.tenants[1].w.QuantStats(); q != 0 {
		p.close()
		return nil, fmt.Errorf("int8 tenant served %d rows before any request", q)
	}
	// A fixed count of warm-up batches per path ends set-up.
	warm := warmResult(wideBatch)
	s.drive(warm, 0, time.Time{}, wideWarmups)
	if warm.failed() != 0 {
		p.close()
		return nil, fmt.Errorf("warm-up: %d rows failed", warm.failed())
	}
	return s, nil
}

// warmResult is a throwaway result for a fixed count of warm-up batches.
func warmResult(rowsPerSample int) *result {
	return &result{win: newWindows(time.Now(), time.Hour, time.Hour, rowsPerSample)}
}

// sweepLoop is one design-sweep client: 64-row batches against one
// backend until end (or for exactly n batches when n > 0).
func sweepLoop(b serve.Backend, tenant int, seed uint64, end time.Time, n int, sloNS int64, t *tally, trace bool) {
	rng := xrand.New(seed)
	xs := tensor.NewMatrix(wideBatch, wideIn)
	res := make([]core.BatchResult, wideBatch)
	want := make([]float64, wideOut)
	for i := 0; n == 0 || i < n; i++ {
		for r := 0; r < xs.Rows; r++ {
			wideInput(rng, xs.Row(r))
		}
		t0 := time.Now()
		if n == 0 && !t0.Before(end) {
			return
		}
		t.attempted += wideBatch
		err := b.QueryBatchInto(xs, res)
		t1 := time.Now()
		ns := int64(t1.Sub(t0))
		if err != nil {
			t.fails[failError] += wideBatch
			continue
		}
		t.rec.record(t1, ns)
		for r := range res {
			wideTruth(xs.Row(r), want)
			t.batchRow(&res[r], ns <= sloNS, wideUQThreshold, want)
		}
		if trace {
			t.roots = append(t.roots, rootSpan{t0, t1, tenant})
		}
	}
}

// batchRow folds one row of a batch answer into the tally.
func (t *tally) batchRow(r *core.BatchResult, inSLO bool, threshold float64, truth []float64) {
	if r.Err != nil {
		t.fails[failError]++
		return
	}
	t.ok++
	if inSLO {
		t.sloOK++
	}
	for j, want := range truth {
		d := r.Y[j] - want
		t.rec.sq.add(sqErr{d * d, 1})
	}
	if r.Src != core.FromSurrogate {
		t.oracle++
		return
	}
	for _, sd := range r.Std {
		if sd > threshold {
			t.gateViol++
			break
		}
	}
}

// drive runs the two sweep clients side by side.
func (s *batchWL) drive(res *result, seed uint64, end time.Time, n int) {
	tallies := make([]tally, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		tallies[0].rec.w = res.win
		sweepLoop(s.tenants[0].backend, 0, seed, end, n, s.sloNS, &tallies[0], s.e.tr != nil)
	}()
	go func() {
		defer wg.Done()
		tallies[1].rec.w = res.win
		int8Sweep(s, seed, end, n, &tallies[1])
	}()
	wg.Wait()
	for i := range tallies {
		res.absorb(&tallies[i])
	}
}

func (s *batchWL) measure(seed uint64, d time.Duration) *result {
	s.base = coreSnapshot(s.prov, s.tenants[0].w, s.tenants[1].w)
	start := time.Now()
	res := &result{win: newWindows(start, d, batchWindow, wideBatch)}
	res.wall, res.cpu = res.win.measure(func() { s.drive(res, seed, start.Add(d), 0) })
	return res
}

func (s *batchWL) background() error { return s.prov.bg.get() }

func (s *batchWL) close() { s.prov.close() }

func (s *batchWL) layers(res *result, m metrics) error {
	coreLayers(s.e, res, m, []*core.ShardedWrapper{s.tenants[0].w, s.tenants[1].w}, s.base, s.prov)
	registryLayers(s.e, s.prov, s.tenants[0].name, m)
	tensorProbes(m)
	if err := nnBatchProbes(m); err != nil {
		return err
	}
	coreBatchProbe(m, s.tenants[0].w)
	return nil
}
