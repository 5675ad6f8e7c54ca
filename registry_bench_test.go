package repro

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// BenchmarkRegistryColdStart measures what the crash-safe registry buys
// at process start: time from "nothing in memory" to "first surrogate
// prediction served".
//
//   - warm:    open the registry, mmap-decode the last durable
//     generation (network + compiled + quantized programs, scalers),
//     predict. No training, no compilation, no calibration.
//   - retrain: the before-picture — rebuild the same surrogate from the
//     retained design (train + compile + quantize), predict.
//
// The CI gate (bench_diff -require) holds warm to ≥5× faster than
// retrain on this 60-row toy corpus (~10× measured); on a serving-sized
// design it is orders of magnitude. This is the number
// that makes restart-after-crash a non-event for serving fleets.
func BenchmarkRegistryColdStart(b *testing.B) {
	const n, epochs = 60, 40
	design := tensor.NewMatrix(n, 2)
	labels := tensor.NewMatrix(n, 1)
	drng := xrand.New(17)
	for i := 0; i < n; i++ {
		x0, x1 := drng.Range(-1, 1), drng.Range(-1, 1)
		design.Set(i, 0, x0)
		design.Set(i, 1, x1)
		labels.Set(i, 0, math.Sin(3*x0)+0.5*x1)
	}
	newSur := func(seed uint64) *core.NNSurrogate {
		s := core.NewNNSurrogate(2, 1, []int{16}, 0.1, xrand.New(seed))
		s.Epochs = epochs
		s.MCPasses = 4
		s.Quantize = true
		return s
	}

	// One durable generation on disk, published once outside the loops.
	dir := filepath.Join(b.TempDir(), "reg")
	reg, err := registry.Open(registry.Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	seed := newSur(1)
	if err := seed.Train(design, labels); err != nil {
		b.Fatal(err)
	}
	if _, err := registry.PublishSurrogate(reg, registry.ShardKey("bench", 0), seed, 0.01); err != nil {
		b.Fatal(err)
	}
	reg.Close()

	probe := []float64{0.3, -0.4}
	var sink float64

	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := registry.Open(registry.Config{Dir: dir})
			if err != nil {
				b.Fatal(err)
			}
			sur, _, _, err := registry.LoadSurrogate(r, registry.ShardKey("bench", 0), xrand.New(2))
			if err != nil {
				b.Fatal(err)
			}
			sink += core.Predict(sur, probe)[0]
			r.Close()
		}
	})

	b.Run("retrain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sur := newSur(uint64(3 + i))
			if err := sur.Train(design, labels); err != nil {
				b.Fatal(err)
			}
			sink += core.Predict(sur, probe)[0]
		}
	})

	if sink == math.Inf(1) {
		b.Fatal("impossible")
	}
}
