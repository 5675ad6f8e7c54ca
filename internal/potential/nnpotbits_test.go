package potential

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/xrand"
)

// TestNNPotentialPinnedBits fits a small potential from fixed seeds and
// compares an FNV-64a hash of the little-endian bits of its energies on
// fixed configurations with a pinned value. It reads the trained weights
// through PredictEnergy only, so it holds any rewrite of the training loop
// to the same bits. It passes alike with the tensor assembly and under
// -tags purego.
func TestNNPotentialPinnedBits(t *testing.T) {
	const pinned = 0x71293bda312c67ca
	oracle := NewAbInitio()
	oracle.SCFIters = 3
	configs, energies := makeDataset(t, oracle, 24, 6, 31)
	p := NewNNPotential(DefaultSymmetryFunctions(), []int{10, 6}, xrand.New(32))
	p.Epochs = 12
	if err := p.Fit(configs, energies); err != nil {
		t.Fatal(err)
	}
	probe, _ := makeDataset(t, oracle, 8, 7, 33)
	h := fnv.New64a()
	var b [8]byte
	for _, c := range append(probe, configs[:4]...) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p.PredictEnergy(c)))
		h.Write(b[:])
	}
	if got := h.Sum64(); got != pinned {
		t.Fatalf("energies hash to %016x, pinned %016x", got, uint64(pinned))
	}
}
