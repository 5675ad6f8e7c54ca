package epi

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestTwoBranchNetPinnedBits fits a small two-branch net from fixed seeds
// and compares an FNV-64a hash of the little-endian bits of its forecasts on
// fixed inputs with a pinned value. It reads the trained weights through
// Predict only, so it holds any rewrite of the training loop to the same
// bits. It passes alike with the tensor assembly and under -tags purego.
func TestTwoBranchNetPinnedBits(t *testing.T) {
	const pinned = 0x314e950b34881b38
	data := xrand.New(23)
	x, y := tensor.NewMatrix(70, 5), tensor.NewMatrix(70, 3)
	for i := range x.Data {
		x.Data[i] = data.Range(-2, 2)
	}
	for i := range y.Data {
		y.Data[i] = data.Range(0, 4)
	}
	net := NewTwoBranchNet(3, 2, 6, 4, 8, 3, xrand.New(21))
	if err := net.Fit(x, y, 6, 16, 1e-2); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [8]byte
	for r := 0; r < 10; r++ {
		for _, v := range net.Predict(x.Row(r)) {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	if got := h.Sum64(); got != pinned {
		t.Fatalf("forecasts hash to %016x, pinned %016x", got, uint64(pinned))
	}
}
