package repro

import (
	"math"
	"testing"
)

// TestFacadeQuickstart exercises the public API end to end: the
// README-documented flow must keep working.
func TestFacadeQuickstart(t *testing.T) {
	rng := NewRand(1)
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{x[0] + 2*x[1]}, nil
	}}
	fac := NewNNSurrogateFactory(2, 1, []int{16}, 0.1, rng.Split(), func(s *NNSurrogate) { s.Epochs = 120 })
	w := NewShardedWrapper(oracle, fac, ShardedConfig{Shards: 1, MinTrainSamples: 60, UQThreshold: 0.25})
	for i := 0; i < 60; i++ {
		if _, _, _, err := w.Query([]float64{rng.Float64(), rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < 40; i++ {
		_, src, _, err := w.Query([]float64{rng.Float64(), rng.Float64()})
		if err != nil {
			t.Fatal(err)
		}
		if src == FromSurrogate {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("facade wrapper never served from surrogate")
	}
	led := w.Ledger()
	if led.NLookup != hits {
		t.Fatal("facade ledger inconsistent")
	}
}

// TestFacadeShardedServing exercises the stall-free serving API end to
// end through the facade: factory, pretrain, batch serving, Wait.
func TestFacadeShardedServing(t *testing.T) {
	rng := NewRand(2)
	oracle := OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return []float64{x[0] - x[1]}, nil
	}}
	fac := NewNNSurrogateFactory(2, 1, []int{16}, 0.1, rng, func(s *NNSurrogate) {
		s.Epochs = 100
		s.MCPasses = 8
	})
	w := NewShardedWrapper(oracle, fac, ShardedConfig{
		Shards: 2, UQThreshold: 0.3, MinTrainSamples: 10, RetrainEvery: 30, OracleWorkers: 2,
	})
	design := NewMatrix(80, 2)
	for i := 0; i < design.Rows; i++ {
		design.Set(i, 0, rng.Range(-1, 1))
		design.Set(i, 1, rng.Range(-1, 1))
	}
	if err := w.Pretrain(design); err != nil {
		t.Fatal(err)
	}
	batch := NewMatrix(32, 2)
	for i := 0; i < batch.Rows; i++ {
		batch.Set(i, 0, rng.Range(-1, 1))
		batch.Set(i, 1, rng.Range(-1, 1))
	}
	res, err := w.QueryBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("row %d: %v", i, r.Err)
		}
		if r.Src == FromSurrogate {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("sharded facade never served from a surrogate")
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeEffectiveSpeedup(t *testing.T) {
	s := EffectiveSpeedup(100, 100, 1, 0.01, 1000, 10)
	want := 100.0 * 1010 / (0.01*1000 + 101*10)
	if math.Abs(s-want) > 1e-9 {
		t.Fatalf("facade speedup %g want %g", s, want)
	}
}

func TestFacadeTaxonomy(t *testing.T) {
	if MLaroundHPC.String() != "MLaroundHPC" {
		t.Fatal("taxonomy re-export broken")
	}
	if HPCrunsML.Category().String() != "HPCforML" {
		t.Fatal("category re-export broken")
	}
}
