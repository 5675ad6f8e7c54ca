package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// coreRung enters the request stream at core: each caller asks its
// tenant's ShardedWrapper for one row, no coalescing, no fleet.
func coreRung(s *routedStack) func(c int) rowCall {
	return func(int) rowCall {
		return func(tenant int, x, y, std []float64) (bool, error) {
			yy, src, sd, err := s.wrappers[0][tenant].Query(x)
			if err != nil {
				return false, err
			}
			y[0] = yy[0]
			if src == core.FromSurrogate {
				std[0] = sd[0]
			}
			return src == core.FromSurrogate, nil
		}
	}
}

// coreBase is what core had already done when a measurement started.
type coreBase struct {
	refits    int
	published int64
}

// coreLayers reports what core did during a traced workload: who
// answered, how busy the oracle was, how often the int8 guardrail fell
// back to float, how many refits ran and how many generations they
// published.
func coreLayers(e *env, res *result, m metrics, wrappers []*core.ShardedWrapper, base coreBase, p *provisioned) {
	share := func(n int64) float64 { return ratio(float64(n), float64(res.ok)) }
	m.set("core.surrogate_share", share(res.ok-res.oracle))
	m.set("core.oracle_share", share(res.oracle))
	_, _, busy := e.tr.sum(spanOracle)
	m.set("core.oracle_busy_share", ratio(busy.Seconds(), res.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	var q, f uint64
	for _, w := range wrappers {
		wq, wf := w.QuantStats()
		q, f = q+wq, f+wf
	}
	m.set("core.quant_fallback_share", ratio(float64(f), float64(q)))
	m.set("core.refits", float64(trainingRuns(wrappers...)-base.refits))
	m.set("core.generations_published", float64(p.published.Load()-base.published))
}

func trainingRuns(wrappers ...*core.ShardedWrapper) int {
	n := 0
	for _, w := range wrappers {
		n += w.Ledger().NTrainingRuns
	}
	return n
}

// coreSnapshot is taken when a measurement starts.
func coreSnapshot(p *provisioned, wrappers ...*core.ShardedWrapper) coreBase {
	return coreBase{trainingRuns(wrappers...), p.published.Load()}
}

// coreBatchProbe times core's batch entry point alone, one thread, on
// the batch_sweep float tenant: its distance from
// nn.float_batch_ns_per_row is the gate + ledger + shard-partition
// overhead (traced batch_sweep).
func coreBatchProbe(m metrics, wide *core.ShardedWrapper) {
	rng := xrand.New(0xc04e)
	xs := tensor.NewMatrix(wideBatch, wideIn)
	for i := range xs.Data {
		xs.Data[i] = rng.Range(-1, 1)
	}
	res := make([]core.BatchResult, xs.Rows)
	singleThread(func() {
		m.set("core.query_batch_ns_per_row", perOp(40, func() {
			must(wide.QueryBatchInto(xs, res))
		})/wideBatch)
	})
}

// coreRowProbe times core's row entry point alone on a serving tenant
// (traced routed_closed).
func coreRowProbe(m metrics, serving *core.ShardedWrapper) {
	x := []float64{0.3, -0.2}
	m.set("core.query_row_ns", perOp(20000, func() {
		_, _, _, err := serving.Query(x)
		must(err)
	}))
}

// coreLearnProbes times, alone, what learn_loop keeps core busy with
// off the query path: ingest, and a refit with a query stream running
// against it (traced learn_loop). They run on wrappers of the learn
// shape with a loose threshold and no sample-count trigger, so that a
// probe refit is not chased by follow-ups.
func coreLearnProbes(m metrics) {
	rng := xrand.New(0x9e0b)
	// Enough rows that every shard's sliding window is full, so a probe
	// refit costs what a learn_loop refit costs.
	learn := newLearnWrapper(learnOracle(), servingUQThreshold, 0)
	ld := tensor.NewMatrix((learnShards+1)*learnWindowRows, 2)
	for i := 0; i < ld.Rows; i++ {
		learnInput(rng, ld.Row(i), 0)
	}
	must(learn.Pretrain(ld))

	// Ingest: precomputed rows into a throwaway wrapper of the learn shape.
	sinkW := newLearnWrapper(servingOracle(), servingUQThreshold, 0)
	ix, iy := tensor.NewMatrix(4096, 2), tensor.NewMatrix(4096, 1)
	for i := 0; i < ix.Rows; i++ {
		servingInput(rng, ix.Row(i))
		iy.Row(i)[0] = servingTruth(ix.Row(i))
	}
	m.set("core.ingest_ns_per_row", perOp(5, func() {
		must(sinkW.Ingest(ix, iy))
	})/float64(ix.Rows))

	// Refit + Wait on the learn tenant, with one client querying
	// throughout: the refit's duration, and the query tail it causes.
	var lat hist
	var qerr error
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b := tensor.NewMatrix(learnBatch, 2)
		r := make([]core.BatchResult, b.Rows)
		qrng := xrand.New(0x9e)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < b.Rows; i++ {
				learnInput(qrng, b.Row(i), 0)
			}
			t0 := time.Now()
			if qerr = learn.QueryBatchInto(b, r); qerr != nil {
				return
			}
			lat.add(int64(time.Since(t0)))
		}
	}()
	var refitMS []float64
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		learn.Refit()
		must(learn.Wait())
		refitMS = append(refitMS, float64(time.Since(t0))/1e6)
	}
	close(stop)
	wg.Wait()
	must(qerr)
	m.set("core.refit_ms_p50", median(refitMS))
	m.set("core.query_p99_during_refit_us", lat.quantile(0.99)/1e3)
}

// must stops a probe whose call into the stack failed: the inputs are
// the benchmark's own, so only a bug can get here. main turns the panic
// into a failed run.
func must(err error) {
	if err != nil {
		panic(probeError{fmt.Errorf("probe: %w", err)})
	}
}

type probeError struct{ err error }

// perOp times n calls of f after one warm-up call and returns ns per call.
func perOp(n int, f func()) float64 {
	f()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0)) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
