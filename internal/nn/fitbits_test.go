package nn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestFitPinnedBits fits five shapes from fixed seeds and compares an
// FNV-64a hash of the trained parameters' little-endian bits with a pinned
// value: the one tensor's Go loops give, so the one their assembly twins
// must give too. TestFitMatchesLayerReference runs both of its sides
// through the same kernels, so only a pinned number catches a kernel that
// changes the bits everywhere at once. It passes alike with the assembly
// and under -tags purego.
func TestFitPinnedBits(t *testing.T) {
	for _, c := range []struct {
		widths []int
		hash   uint64
	}{
		{[]int{2, 24, 1}, 0x10cacb8db7cdbfd5},
		{[]int{8, 128, 128, 4}, 0x3ba9fa3ffe34bc01},
		{[]int{6, 30, 48, 3}, 0xab0741583a01ae06},
		{[]int{3, 13, 2}, 0x10af91ed8337a6df},
		{[]int{1, 7, 5}, 0x3ca7e6bc71c47efc},
	} {
		t.Run(strings.ReplaceAll(strings.Trim(fmt.Sprint(c.widths), "[]"), " ", "-"), func(t *testing.T) {
			in, out := c.widths[0], c.widths[len(c.widths)-1]
			data := xrand.New(9)
			x, y := tensor.NewMatrix(700, in), tensor.NewMatrix(700, out)
			for i := range x.Data {
				x.Data[i] = data.Range(-2, 2)
			}
			for i := range y.Data {
				y.Data[i] = data.Range(-1, 1)
			}
			x.Data[5] = 0 // a zero input takes the short matmul's axpy way
			net := NewMLP(xrand.New(1), Tanh, 0.1, c.widths...)
			cfg := TrainConfig{Epochs: 7, BatchSize: 32, Optimizer: NewAdam(1e-2), Seed: 7}
			if _, err := net.Fit(x, y, cfg); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var b [8]byte
			for _, v := range net.slab {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			if got := h.Sum64(); got != c.hash {
				t.Fatalf("trained parameters hash to %016x, pinned %016x", got, c.hash)
			}
		})
	}
}
