package nn

import (
	"math"
	"sync"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestSerializeCompileRoundTrip checks the full persistence pipeline:
// Compile/CompileBatch → EncodeArtifact → DecodeArtifact must reproduce
// the original layer graph's eval outputs exactly, for shallow, deep
// multi-dropout, and dropout-free architectures. Run under -race in CI,
// so the concurrent sub-pass also exercises the pooled compiled contexts
// of a restored model.
func TestSerializeCompileRoundTrip(t *testing.T) {
	rng := xrand.New(51)
	cases := []struct {
		name  string
		dropP float64
		dims  []int
	}{
		{"shallow-single-dropout", 0.1, []int{6, 30, 3}},
		{"deep-multi-dropout", 0.25, []int{5, 24, 16, 8, 2}},
		{"no-dropout", 0, []int{4, 12, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := NewMLP(rng.Split(), Tanh, tc.dropP, tc.dims...)
			// Train a little so the weights are not at init.
			x := tensor.NewMatrix(32, tc.dims[0])
			y := tensor.NewMatrix(32, tc.dims[len(tc.dims)-1])
			r2 := rng.Split()
			for i := range x.Data {
				x.Data[i] = r2.Range(-1, 1)
			}
			for i := range y.Data {
				y.Data[i] = r2.Range(-1, 1)
			}
			if _, err := net.Fit(x, y, TrainConfig{Epochs: 10, BatchSize: 8, Seed: 9}); err != nil {
				t.Fatal(err)
			}

			c := artifactRoundTrip(t, net.Compile())
			cb := artifactRoundTrip(t, net.CompileBatch(3)) // narrow width: forces chunked serving

			probe := tensor.NewMatrix(10, tc.dims[0])
			for i := range probe.Data {
				probe.Data[i] = r2.Range(-2, 2)
			}
			batch := cb.PredictBatch(probe, nil)
			for i := 0; i < probe.Rows; i++ {
				want := evalRow(net, probe.Row(i))
				single := c.predict(probe.Row(i), nil)
				for j := range want {
					if math.Abs(single[j]-want[j]) > 1e-12 {
						t.Fatalf("row %d out %d: restored compiled %g vs original %g", i, j, single[j], want[j])
					}
					if math.Abs(batch.At(i, j)-want[j]) > 1e-12 {
						t.Fatalf("row %d out %d: restored compiled batch %g vs original %g", i, j, batch.At(i, j), want[j])
					}
				}
			}

			// Concurrent serving of the restored programs (meaningful under
			// -race): pooled single and batch contexts must not interfere.
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					out := tensor.NewMatrix(10, cb.out)
					mean := tensor.NewMatrix(10, cb.out)
					std := tensor.NewMatrix(10, cb.out)
					for k := 0; k < 50; k++ {
						cb.PredictBatch(probe, out)
						if !tensor.Equal(out, batch, 0) {
							panic("concurrent restored PredictBatch diverged")
						}
						cb.PredictMCBatch(probe, 4, mean, std)
					}
				}()
			}
			wg.Wait()
		})
	}
}
