package repro

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// The benchmarks in this file pin the NN hot path: steady-state training
// throughput, layer-level allocation behaviour, and batched surrogate
// serving. scripts/bench.sh snapshots them into BENCH_<n>.json so PRs
// have a perf trajectory.

// trainBenchData builds a fixed synthetic regression corpus.
func trainBenchData(n, in, out int) (*tensor.Matrix, *tensor.Matrix) {
	rng := xrand.New(0xbe7c)
	x := tensor.NewMatrix(n, in)
	y := tensor.NewMatrix(n, out)
	for i := range x.Data {
		x.Data[i] = rng.Range(-1, 1)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < out; j++ {
			s := 0.0
			for k := 0; k < in; k++ {
				s += x.At(i, k) * float64(k%3)
			}
			y.Set(i, j, s/float64(in))
		}
	}
	return x, y
}

// BenchmarkTrainEpoch measures one full Fit epoch (shuffle, minibatch
// assembly, forward, loss, backward, optimizer step) over 512 samples of
// a dropout MLP, per shape: the 8-64-64-4 case this benchmark has always
// carried, the 2-24-1 net the serving tenants refit and the paper's
// 6-30-48-3 autotuning net. Go reports no line for a benchmark that has
// sub-benchmarks, so the first case runs as /8x64x64x4 and scripts/bench.sh
// snapshots it under the bare name, where the trajectory has it.
//
// /serving-pair is the shape of ShardedWrapper.Pretrain on two shards, which
// is what the benchmark's routed setup_s is made of: two goroutines fit a
// serving net each, b.N fits between them. ns/op is wall time per fit;
// ns/sample-epoch is what one fit takes with its sibling running, twice that
// over the 512 rows. Every minibatch's yield hands the P to the sibling at
// GOMAXPROCS=1 and finds both Ps busy at 2; a lone fit on 2 CPUs
// (BENCH_<n>.cpus2.json's /serving) wakes an idle P with each one instead.
func BenchmarkTrainEpoch(b *testing.B) {
	for _, c := range []struct {
		name   string
		widths []int
		batch  int
	}{
		{"8x64x64x4", []int{8, 64, 64, 4}, 64},
		{"serving", []int{2, 24, 1}, 32},
		{"paper", []int{6, 30, 48, 3}, 32},
	} {
		b.Run(c.name, func(b *testing.B) {
			x, y := trainBenchData(512, c.widths[0], c.widths[len(c.widths)-1])
			net := nn.NewMLP(xrand.New(1), nn.Tanh, 0.1, c.widths...)
			cfg := nn.TrainConfig{Epochs: 1, BatchSize: c.batch, Optimizer: nn.NewAdam(1e-3), Seed: 7}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := net.Fit(x, y, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*x.Rows), "ns/sample-epoch")
		})
	}
	b.Run("serving-pair", func(b *testing.B) {
		x, y := trainBenchData(512, 2, 1)
		var nets [2]*nn.Network
		for g := range nets {
			nets[g] = nn.NewMLP(xrand.New(uint64(1+g)), nn.Tanh, 0.1, 2, 24, 1)
		}
		var wg sync.WaitGroup
		b.ReportAllocs()
		b.ResetTimer()
		for g, net := range nets {
			wg.Add(1)
			go func(net *nn.Network, fits int) {
				defer wg.Done()
				cfg := nn.TrainConfig{Epochs: 1, BatchSize: 32, Optimizer: nn.NewAdam(1e-3), Seed: 7}
				for i := 0; i < fits; i++ {
					if _, err := net.Fit(x, y, cfg); err != nil {
						b.Error(err)
						return
					}
				}
			}(net, (b.N+g)/2)
		}
		wg.Wait()
		b.ReportMetric(2*float64(b.Elapsed().Nanoseconds())/float64(b.N*x.Rows), "ns/sample-epoch")
	})
}

// BenchmarkEncodeArtifact serializes what batch_sweep's float tenant
// publishes at every refit: the 8-128-128-4 net's 32-row compiled program,
// its weights once. The encoder sizes the artifact before it writes, so an
// encode is the one buffer, filled with one bulk copy of the slab.
func BenchmarkEncodeArtifact(b *testing.B) {
	net := nn.NewMLP(xrand.New(5), nn.Tanh, 0.1, 8, 128, 128, 4)
	a := &nn.Artifact{Compiled: net.CompileBatch(32), Meta: []byte("bench")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := nn.EncodeArtifact(a)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

// BenchmarkDenseForwardBackward measures one steady-state training step
// of a one-layer 16→16 Tanh tape on 8 rows; allocs/op must read 0.
func BenchmarkDenseForwardBackward(b *testing.B) {
	rng := xrand.New(3)
	tape := nn.NewNetwork(rng, []nn.Activation{nn.Tanh}, 16, 16).Tape(8)
	x := tensor.NewMatrix(8, 16)
	g := tensor.NewMatrix(8, 16)
	for i := range x.Data {
		x.Data[i] = rng.Range(-1, 1)
		g.Data[i] = rng.Range(-1, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tape.Forward(x)
		tape.Backward(g, nil)
	}
}

// newBenchWrapper pretrains a wide-open-gate wrapper (2→24→1 dropout
// MLP, 10 MC passes) on designRows points of a cheap analytic oracle.
func newBenchWrapper(b *testing.B, cfg core.ShardedConfig, designRows int) *core.ShardedWrapper {
	b.Helper()
	rng := xrand.New(0x5e4e)
	oracle := core.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{math.Sin(x[0]) + 0.5*x[1]}, nil
	}}
	factory := core.NewNNSurrogateFactory(2, 1, []int{24}, 0.1, rng, func(s *core.NNSurrogate) {
		s.Epochs = 100
		s.MCPasses = 10
	})
	cfg.MinTrainSamples, cfg.UQThreshold = 10, 10
	w := core.NewShardedWrapper(oracle, factory, cfg)
	design := tensor.NewMatrix(designRows, 2)
	for i := 0; i < design.Rows; i++ {
		design.Set(i, 0, rng.Range(-2, 2))
		design.Set(i, 1, rng.Range(-1, 1))
	}
	if err := w.Pretrain(design); err != nil {
		b.Fatal(err)
	}
	return w
}

// benchWrapper is the one-shard (unsharded) wrapper the serving
// benchmarks run on.
func benchWrapper(b *testing.B) *core.ShardedWrapper {
	return newBenchWrapper(b, core.ShardedConfig{Shards: 1}, 100)
}

func benchBatch(n int) *tensor.Matrix {
	rng := xrand.New(0xba7c4)
	batch := tensor.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		batch.Set(i, 0, rng.Range(-2, 2))
		batch.Set(i, 1, rng.Range(-1, 1))
	}
	return batch
}

// BenchmarkQueryBatch serves 64 UQ-gated queries per op through the
// steady-state batch serving loop: the compiled batch program answers the
// whole batch in fused chunks and QueryBatchInto reuses the caller's
// result slice, so a warmed iteration performs zero heap allocations
// (down from 8 allocs/op through the uncompiled path in BENCH_3).
func BenchmarkQueryBatch(b *testing.B) {
	w := benchWrapper(b)
	batch := benchBatch(64)
	res := make([]core.BatchResult, batch.Rows)
	if err := w.QueryBatchInto(batch, res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.QueryBatchInto(batch, res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*64)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkQueryLoop serves the same 64 queries one Query at a time —
// the pre-batching serving pattern, kept as the comparison baseline.
func BenchmarkQueryLoop(b *testing.B) {
	w := benchWrapper(b)
	batch := benchBatch(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < batch.Rows; r++ {
			if _, _, _, err := w.Query(batch.Row(r)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.N*64)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkQueryBatchParallel drives the batch path from parallel
// goroutines, exercising the wrapper's lock-free serving contract.
func BenchmarkQueryBatchParallel(b *testing.B) {
	w := benchWrapper(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		batch := benchBatch(64)
		for pb.Next() {
			if _, err := w.QueryBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchShardedWrapper is benchWrapper partitioned two ways.
func benchShardedWrapper(b *testing.B) *core.ShardedWrapper {
	return newBenchWrapper(b, core.ShardedConfig{Shards: 2, OracleWorkers: 4}, 128)
}

// reportLatencyPercentiles attaches p50/p99 per-query latency metrics.
func reportLatencyPercentiles(b *testing.B, lats []time.Duration) {
	b.Helper()
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		return float64(lats[int(p*float64(len(lats)-1))].Nanoseconds())
	}
	b.ReportMetric(pct(0.50), "p50-ns")
	b.ReportMetric(pct(0.99), "p99-ns")
}

// BenchmarkCompiledForward pins the fused inference kernel on the paper's
// 6-30-48-3 autotuning net: the compiled single-query forward must run at
// 0 allocs/op.
func BenchmarkCompiledForward(b *testing.B) {
	rng := xrand.New(0xf00d)
	net := nn.NewMLP(xrand.New(1), nn.Tanh, 0.1, 6, 30, 48, 3)
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.Range(-1, 1)
	}

	b.Run("compiled", func(b *testing.B) {
		c := net.Compile()
		xs, dst := tensor.FromRows([][]float64{x}), tensor.NewMatrix(1, 3)
		c.PredictBatch(xs, dst)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.PredictBatch(xs, dst)
		}
	})
}

// BenchmarkQuantizedForward pins the int8 quantized single-query forward
// on the same 6-30-48-3 autotuning net as BenchmarkCompiledForward. The
// quantized program packs each dense panel into 7-bit SWAR words and runs
// the whole hidden stack in integer arithmetic with a fused
// dequant+activation+requant epilogue. CI's bench_diff gate holds it to
// 0 allocs/op and a ceiling of 650 ns/op; it is slower than the float
// compiled path on this shape (README "Int8 programs").
func BenchmarkQuantizedForward(b *testing.B) {
	rng := xrand.New(0xf00d)
	net := nn.NewMLP(xrand.New(1), nn.Tanh, 0.1, 6, 30, 48, 3)
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.Range(-1, 1)
	}
	calib := tensor.NewMatrix(32, 6)
	for i := range calib.Data {
		calib.Data[i] = rng.Range(-1, 1)
	}
	q := net.Compile().Quantize(calib)
	if q == nil {
		b.Fatal("net did not quantize")
	}
	dst := make([]float64, 3)
	if _, ok := q.Predict(x, dst); !ok {
		b.Fatal("benchmark input clipped the calibration envelope")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Predict(x, dst)
	}
}

// BenchmarkQuantizedQueryBatch serves the same 64-query batch as
// BenchmarkQueryBatch through a Quantized wrapper: the int8 batch program
// answers every row, the UQ-vs-quant-error guardrail re-checks each
// decision, and a warmed iteration performs zero heap allocations.
func BenchmarkQuantizedQueryBatch(b *testing.B) {
	w := newBenchWrapper(b, core.ShardedConfig{Shards: 1, Quantized: true}, 100)
	batch := benchBatch(64)
	res := make([]core.BatchResult, batch.Rows)
	if err := w.QueryBatchInto(batch, res); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.QueryBatchInto(batch, res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*64)/b.Elapsed().Seconds(), "queries/s")
	q, f := w.QuantStats()
	b.ReportMetric(float64(f)/float64(q), "fallback-rate")
}

// BenchmarkCompiledBatch pins the fused batch program on the paper's
// 6-30-48-3 autotuning net at a 64-row batch, at 0 allocs/op.
func BenchmarkCompiledBatch(b *testing.B) {
	rng := xrand.New(0xf00e)
	net := nn.NewMLP(xrand.New(1), nn.Tanh, 0.1, 6, 30, 48, 3)
	xs := tensor.NewMatrix(64, 6)
	for i := range xs.Data {
		xs.Data[i] = rng.Range(-1, 1)
	}

	b.Run("compiled", func(b *testing.B) {
		c := net.CompileBatch(64)
		dst := tensor.NewMatrix(64, 3)
		c.PredictBatch(xs, dst)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.PredictBatch(xs, dst)
		}
	})
}

// BenchmarkDeepUQ pins batched MC-dropout UQ on a deep surrogate with
// THREE dropout layers (8-64-[drop]-64-[drop]-64-[drop]-1), where the
// canonical-tail fusion does not apply. The batch is a realistic
// coalesced per-shard slice (8 rows), where per-pass overhead would not
// be hidden by matmul bulk. The pass-stacked compiled path runs all
// passes through one tall fused matmul per dense stage: 4 matmul sweeps
// total (the reported matmul-sweeps metric; replaying the suffix per pass
// would take 1 + 3·passes), at 0 allocs/op.
func BenchmarkDeepUQ(b *testing.B) {
	const passes = 30
	rng := xrand.New(0xf00f)
	net := nn.NewMLP(xrand.New(2), nn.Tanh, 0.15, 8, 64, 64, 64, 1)
	xs := tensor.NewMatrix(8, 8)
	for i := range xs.Data {
		xs.Data[i] = rng.Range(-1, 1)
	}

	b.Run("passstacked", func(b *testing.B) {
		c := net.CompileBatch(64)
		mean := tensor.NewMatrix(8, 1)
		std := tensor.NewMatrix(8, 1)
		c.PredictMCBatch(xs, passes, mean, std)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.PredictMCBatch(xs, passes, mean, std)
		}
		// 1 prefix dense + 3 suffix dense stages, passes shared.
		b.ReportMetric(4, "matmul-sweeps")
	})

	// Full 64-row chunks whose passes do not all fit one pass-group panel:
	// wide is batch_sweep's float tenant (four groups of four passes), paper
	// the §III-D autotuning net (three groups of ten).
	for _, tc := range []struct {
		name   string
		widths []int
		passes int
	}{
		{"wide", []int{8, 128, 128, 4}, 16},
		{"paper", []int{6, 30, 48, 3}, 30},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c := nn.NewMLP(xrand.New(3), nn.Tanh, 0.1, tc.widths...).CompileBatch(64)
			xs := tensor.NewMatrix(64, tc.widths[0])
			xr := xrand.New(4)
			for i := range xs.Data {
				xs.Data[i] = xr.Range(-1, 1)
			}
			out := tc.widths[len(tc.widths)-1]
			mean, std := tensor.NewMatrix(64, out), tensor.NewMatrix(64, out)
			c.PredictMCBatch(xs, tc.passes, mean, std)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.PredictMCBatch(xs, tc.passes, mean, std)
			}
		})
	}
}

// BenchmarkMatMulKernels times the three matmul kernels a training step
// is made of — bias (forward, x·W+b), atb (GW = xᵀ·delta) and abt
// (dX = delta·Wᵀ) — on one thread, at batch x in x out of the layers the
// fits run: the wide batch_sweep net at a 64-row batch and at its 32-row
// minibatch (8 → 128 → 128 → 4: the input, hidden and output layers), and
// the serving tenants' two layers, their first (one to three inputs: the
// register tile runs it as all reduction tail), also at one row, a routed
// row's MC prefix, and their output, where bias is the narrow path, atb
// the p = 1 column kernel and abt the k = 1 scaled copy; 32x3x30 is the
// autotuning example's input layer, whose last two columns the tile
// leaves to the Go loop. ns/MAC is ns/op over batch·in·out multiply-adds,
// GFLOP/s two flops a MAC.
func BenchmarkMatMulKernels(b *testing.B) {
	rng := xrand.New(0x6e55)
	random := func(rows, cols int) *tensor.Matrix {
		m := tensor.NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.Range(-1, 1)
		}
		return m
	}
	for _, kernel := range []string{"bias", "atb", "abt"} {
		for _, d := range [][3]int{{64, 128, 128}, {32, 128, 128}, {32, 8, 128}, {32, 128, 4}, {32, 2, 24}, {1, 2, 24}, {32, 3, 30}, {32, 24, 1}} {
			batch, in, out := d[0], d[1], d[2]
			x, w, delta := random(batch, in), random(in, out), random(batch, out)
			bias := make([]float64, out)
			var dst *tensor.Matrix
			var run func()
			switch kernel {
			case "bias":
				dst = tensor.NewMatrix(batch, out)
				run = func() { tensor.MatMulBiasInto(dst, x, w, bias) }
			case "atb":
				dst = tensor.NewMatrix(in, out)
				run = func() { tensor.MatMulATBInto(dst, x, delta) }
			case "abt":
				dst = tensor.NewMatrix(batch, in)
				run = func() { tensor.MatMulABTInto(dst, delta, w) }
			}
			b.Run(fmt.Sprintf("%s/%dx%dx%d", kernel, batch, in, out), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				macs := float64(b.N * batch * in * out)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/macs, "ns/MAC")
				b.ReportMetric(2*macs/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
			})
		}
	}
}

// BenchmarkQuantSweep times one int8 sweep of a 128x128 panel, the int8
// counterpart of one row of bias/64x128x128; ns/MAC is ns/op over
// in·out = 16384 multiply-adds.
func BenchmarkQuantSweep(b *testing.B) {
	const in, out = 128, 128
	rng := xrand.New(0x6e56)
	q, x := make([]int8, in*out), make([]int8, in)
	for i := range q {
		q[i] = int8(rng.Intn(2*tensor.QuantMax+1) - tensor.QuantMax)
	}
	for i := range x {
		x[i] = int8(rng.Intn(2*tensor.QuantMax+1) - tensor.QuantMax)
	}
	panel := tensor.PackQuantPanel(q, in, out)
	acc, ux := make([]int32, out), make([]uint64, in)
	b.Run("128x128", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			panel.Sweep(acc, x, ux)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*in*out), "ns/MAC")
	})
}

// BenchmarkCoalescedQPS measures per-query serving throughput for N
// concurrent clients issuing independent single-point queries, comparing
// the direct Query loop (every call pays the full per-pass dispatch
// cost) with the coalesced front-end (micro-batches amortize it). The
// acceptance bar is ≥2× queries/s at 64 clients.
func BenchmarkCoalescedQPS(b *testing.B) {
	for _, clients := range []int{1, 8, 64} {
		w := benchWrapper(b)
		run := func(b *testing.B, query func(x []float64) error) {
			b.SetParallelism(1)
			var wg sync.WaitGroup
			per := b.N / clients
			if per == 0 {
				per = 1
			}
			b.ResetTimer()
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := xrand.New(seed)
					x := make([]float64, 2)
					for i := 0; i < per; i++ {
						x[0] = rng.Range(-2, 2)
						x[1] = rng.Range(-1, 1)
						if err := query(x); err != nil {
							b.Error(err)
							return
						}
					}
				}(uint64(0xc11e + g))
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(per*clients)/b.Elapsed().Seconds(), "queries/s")
		}

		b.Run(fmt.Sprintf("direct/clients=%d", clients), func(b *testing.B) {
			run(b, func(x []float64) error {
				_, _, _, err := w.Query(x)
				return err
			})
		})
		b.Run(fmt.Sprintf("coalesced/clients=%d", clients), func(b *testing.B) {
			c := serve.NewCoalescer(w, serve.Config{MaxBatch: 64})
			defer c.Close()
			run(b, func(x []float64) error {
				_, err := c.Query(x)
				return err
			})
			b.ReportMetric(c.Stats().MeanBatch(), "batch-size")
		})
	}
}

// BenchmarkQueryDuringRetrain measures single-query serving latency
// (p50/p99) with and without a continuous background refit
// (sharded/idle, sharded/retrain). The ShardedWrapper is double-buffered —
// refits train a fresh model off to the side and publish by pointer swap
// — so the retrain percentiles should stay within ~2× of idle.
func BenchmarkQueryDuringRetrain(b *testing.B) {
	run := func(b *testing.B, w *core.ShardedWrapper, x []float64) {
		lats := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if _, _, _, err := w.Query(x); err != nil {
				b.Fatal(err)
			}
			lats = append(lats, time.Since(t0))
		}
		b.StopTimer()
		reportLatencyPercentiles(b, lats)
	}
	inGate := []float64{0.3, 0.2}

	b.Run("sharded/idle", func(b *testing.B) {
		w := benchShardedWrapper(b)
		run(b, w, inGate)
	})
	b.Run("sharded/retrain", func(b *testing.B) {
		w := benchShardedWrapper(b)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					w.Refit() // every shard retrains in the background
					if err := w.Wait(); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}()
		run(b, w, inGate)
		close(stop)
		<-done
	})
}

// BenchmarkOracleFanout measures QueryBatch when every row must fall back
// to a latency-bound oracle (the external-HPC-job shape: ~200µs of
// non-CPU latency per run), comparing the sequential fallback with the
// bounded worker pool. The acceptance bar is ≥1.5× at 4 workers.
func BenchmarkOracleFanout(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		name := "workers=1"
		switch workers {
		case 4:
			name = "workers=4"
		case 8:
			name = "workers=8"
		}
		b.Run(name, func(b *testing.B) {
			rng := xrand.New(0x0a7e)
			oracle := core.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
				time.Sleep(200 * time.Microsecond)
				return []float64{x[0] + x[1]}, nil
			}}
			// Untrained surrogate: every row misses and runs the oracle.
			factory := core.NewNNSurrogateFactory(2, 1, []int{8}, 0.1, rng, nil)
			w := core.NewShardedWrapper(oracle, factory, core.ShardedConfig{
				Shards: 1, MinTrainSamples: 1 << 30, UQThreshold: 0.5, OracleWorkers: workers,
			})
			batch := benchBatch(32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := w.QueryBatch(batch)
				if err != nil {
					b.Fatal(err)
				}
				if len(res) != 32 {
					b.Fatal("short batch")
				}
			}
			b.ReportMetric(float64(b.N*32)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkOracleCampaign is BenchmarkOracleFanout's CPU-bound sibling:
// the offline campaign's oracle fan-out, Pretrain over an oracle that is a
// counted loop of dependent multiply-adds (the benchmark's learn_loop
// oracle, 20–40 µs of CPU a row), at workers = GOMAXPROCS. The wrapper
// retains everything, so every design row runs (a sliding window would
// plan most of them away), and the fits are negligible: one epoch of a
// 4-wide net on ~1 000 rows a shard against ~80 ms of oracle work. It
// reports rows/s, busy-share: the oracle CPU the campaign's rows need
// (rows × the cost of a row measured alone on one goroutine beforehand) ÷
// the worker-seconds the campaign held (wall × workers), and B/row: the
// bytes the campaign allocated per design row, which streaming the design
// bounds.
func BenchmarkOracleCampaign(b *testing.B) {
	const rows = 4000
	workers := runtime.GOMAXPROCS(0)
	oracle := core.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		a := x[0]
		for i := 0; i < 16000; i++ {
			a = a*0.999999 + 1e-7
		}
		return []float64{a + x[1]}, nil
	}}
	factory := core.NewNNSurrogateFactory(2, 1, []int{4}, 0, xrand.New(0xca3b), func(s *core.NNSurrogate) { s.Epochs = 1 })
	design := benchBatch(rows)
	t0 := time.Now()
	for i := 0; i < rows; i++ {
		if _, err := oracle.Run(design.Row(i)); err != nil {
			b.Fatal(err)
		}
	}
	rowCost := time.Since(t0).Seconds() / rows
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	allocated := mem.TotalAlloc
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := core.NewShardedWrapper(oracle, factory, core.ShardedConfig{Shards: 4, OracleWorkers: workers})
		if err := w.Pretrain(design); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&mem)
	done := float64(b.N * rows)
	b.ReportMetric(done/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(done*rowCost/(b.Elapsed().Seconds()*float64(workers)), "busy-share")
	b.ReportMetric(float64(mem.TotalAlloc-allocated)/done, "B/row")
}

// BenchmarkFleetQPS measures the multi-tenant dispatch plane: N tenants
// (each a pretrained UQ-gated wrapper) behind one fleet, M concurrent
// clients per tenant issuing independent single-point queries through
// the zero-alloc QueryInto path. The acceptance bar is that 4 tenants
// sharing the machinery sustain ≥80% of the single-tenant coalesced
// per-query throughput (allocs/op must read 0: tenant lookup, admission,
// pooled batch dispatch and latency recording are all allocation-free in
// steady state).
func BenchmarkFleetQPS(b *testing.B) {
	const clientsPerTenant = 16
	for _, tenants := range []int{1, 4} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			fl := fleet.New(fleet.Config{Coalescer: serve.Config{MaxBatch: 64}})
			defer fl.Close()
			names := make([]string, tenants)
			for t := 0; t < tenants; t++ {
				names[t] = fmt.Sprintf("t%d", t)
				if err := fl.Register(names[t], benchWrapper(b)); err != nil {
					b.Fatal(err)
				}
			}
			clients := clientsPerTenant * tenants
			per := b.N / clients
			if per == 0 {
				per = 1
			}
			b.SetParallelism(1)
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for t := 0; t < tenants; t++ {
				for c := 0; c < clientsPerTenant; c++ {
					wg.Add(1)
					go func(name string, seed uint64) {
						defer wg.Done()
						rng := xrand.New(seed)
						x := make([]float64, 2)
						y := make([]float64, 1)
						std := make([]float64, 1)
						for i := 0; i < per; i++ {
							x[0] = rng.Range(-2, 2)
							x[1] = rng.Range(-1, 1)
							if _, err := fl.QueryInto(name, x, y, std); err != nil {
								b.Error(err)
								return
							}
						}
					}(names[t], uint64(0xf1e0+31*t+c))
				}
			}
			wg.Wait()
			b.StopTimer()
			qps := float64(per*clients) / b.Elapsed().Seconds()
			b.ReportMetric(qps, "queries/s")
			b.ReportMetric(qps/float64(tenants), "queries/s/tenant")
			if st, err := fl.TenantStats(names[0]); err == nil {
				b.ReportMetric(st.MeanBatch, "mean-batch")
			}
		})
	}
}
