package fleet

import (
	"math"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// regOracle is a deterministic 2→1 oracle counting Run calls.
type regOracle struct{ runs atomic.Int64 }

func (o *regOracle) Dims() (int, int) { return 2, 1 }
func (o *regOracle) Run(x []float64) ([]float64, error) {
	o.runs.Add(1)
	return []float64{math.Cos(2*x[0]) - 0.3*x[1]}, nil
}

func regDesign(n int, seed uint64) *tensor.Matrix {
	rng := xrand.New(seed)
	m := tensor.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		m.Set(i, 0, rng.Range(-1, 1))
		m.Set(i, 1, rng.Range(-1, 1))
	}
	return m
}

func regWrapper(oracle core.Oracle, seed uint64, driftFactor float64) *core.ShardedWrapper {
	fac := core.NewNNSurrogateFactory(2, 1, []int{8}, 0.1, xrand.New(seed), func(s *core.NNSurrogate) {
		s.Epochs = 40
		s.MCPasses = 4
	})
	return core.NewShardedWrapper(oracle, fac, core.ShardedConfig{
		Shards:          1, // the unsharded tenant binds like any other
		MinTrainSamples: 8,
		UQThreshold:     1e9,
		DriftFactor:     driftFactor,
	})
}

// A bound tenant publishes every generation, surfaces registry counters
// in TenantStats, and a second fleet warm-starts the tenant from disk
// with zero oracle traffic.
func TestBindRegistryPublishAndWarmStart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "reg")
	reg, err := registry.Open(registry.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	f := New(Config{})
	defer f.Close()
	oracle := &regOracle{}
	w := regWrapper(oracle, 1, 0)
	if err := f.Register("pot", w); err != nil {
		t.Fatal(err)
	}
	warmed, err := f.BindRegistry("pot", RegistryConfig{Registry: reg, OnError: func(err error) { t.Error(err) }})
	if err != nil {
		t.Fatal(err)
	}
	if warmed != 0 {
		t.Fatalf("warmed %d shards from an empty registry", warmed)
	}
	if _, err := f.BindRegistry("pot", RegistryConfig{Registry: reg}); err == nil {
		t.Fatal("double bind accepted")
	}
	if err := w.Pretrain(regDesign(30, 3)); err != nil {
		t.Fatal(err)
	}
	st, err := f.TenantStats("pot")
	if err != nil {
		t.Fatal(err)
	}
	if st.RegistryGeneration != 1 || st.RegistryPublishes != 1 {
		t.Fatalf("stats gen=%d pubs=%d, want 1/1", st.RegistryGeneration, st.RegistryPublishes)
	}

	// Second process: fresh fleet + wrapper, same registry dir.
	reg2, err := registry.Open(registry.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	f2 := New(Config{})
	defer f2.Close()
	oracle2 := &regOracle{}
	w2 := regWrapper(oracle2, 2, 0)
	if err := f2.Register("pot", w2); err != nil {
		t.Fatal(err)
	}
	warmed, err = f2.BindRegistry("pot", RegistryConfig{Registry: reg2, OnError: func(err error) { t.Error(err) }})
	if err != nil {
		t.Fatal(err)
	}
	if warmed != 1 {
		t.Fatalf("warmed %d shards, want 1", warmed)
	}
	for i := 0; i < 10; i++ {
		res, err := f2.query("pot", []float64{-0.4 + 0.08*float64(i), 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Src != core.FromSurrogate {
			t.Fatalf("query %d served from %v", i, res.Src)
		}
	}
	if n := oracle2.runs.Load(); n != 0 {
		t.Fatalf("warm-started tenant ran the oracle %d times", n)
	}
	// The artifact's drift baseline was restored with the model: the
	// residual EWMA starts at the publisher's in-sample residual.
	if r := w2.Status()[0].DriftRatio; r != 1 {
		t.Fatalf("warm-started shard's drift ratio %v, want 1 (baseline restored from the artifact)", r)
	}
}

// The drift watch rolls a regressed generation back to its predecessor:
// after fresh data the published model no longer explains trips the
// drift ratio past RollbackFactor, the binding reinstalls the previous
// registry generation and the rollback shows up in TenantStats.
func TestBindRegistryDriftAutoRollback(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "reg")
	reg, err := registry.Open(registry.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	f := New(Config{})
	defer f.Close()
	oracle := &regOracle{}
	w := regWrapper(oracle, 5, 2)
	if err := f.Register("epi", w); err != nil {
		t.Fatal(err)
	}
	if _, err := f.BindRegistry("epi", RegistryConfig{
		Registry:       reg,
		RollbackFactor: 3,
		OnError:        func(err error) { t.Error(err) },
	}); err != nil {
		t.Fatal(err)
	}
	// Two generations on disk so the rollback has a predecessor.
	if err := w.Pretrain(regDesign(30, 9)); err != nil {
		t.Fatal(err)
	}
	if err := w.TrainAll(); err != nil {
		t.Fatal(err)
	}
	st, _ := f.TenantStats("epi")
	if st.RegistryGeneration != 2 || st.RegistryPublishes != 2 {
		t.Fatalf("stats gen=%d pubs=%d, want 2/2", st.RegistryGeneration, st.RegistryPublishes)
	}

	// Fresh data the published model is badly wrong about: residuals jump
	// orders of magnitude past the in-sample baseline.
	xs := regDesign(16, 31)
	ys := tensor.NewMatrix(16, 1)
	for i := 0; i < 16; i++ {
		ys.Set(i, 0, 100)
	}
	if err := w.Ingest(xs, ys); err != nil {
		t.Fatal(err)
	}

	// The registry counts the rollback before the binding has reinstalled
	// the predecessor, so wait for both: the reinstall clears the drift.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ = f.TenantStats("epi")
		if st.RegistryRollbacks >= 1 && !w.Status()[0].Drifted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drift watch never rolled back and reinstalled: %+v, shard %+v", st, w.Status()[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.RegistryGeneration != 1 {
		t.Fatalf("registry generation %d after rollback, want 1", st.RegistryGeneration)
	}
	// The reinstalled predecessor serves.
	if res, err := f.query("epi", []float64{0.1, -0.3}); err != nil || res.Src != core.FromSurrogate {
		t.Fatalf("post-rollback query: src=%v err=%v", res.Src, err)
	}
}
