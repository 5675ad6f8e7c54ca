package netserve

import (
	"math"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/registry"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// restartOracle is a deterministic 2→1 oracle counting Run calls.
type restartOracle struct{ runs atomic.Int64 }

func (o *restartOracle) Dims() (int, int) { return 2, 1 }
func (o *restartOracle) Run(x []float64) ([]float64, error) {
	o.runs.Add(1)
	return []float64{math.Sin(2*x[0]) + 0.4*x[1]}, nil
}

func restartWrapper(oracle core.Oracle, seed uint64) *core.ShardedWrapper {
	fac := core.NewNNSurrogateFactory(2, 1, []int{8}, 0.1, xrand.New(seed), func(s *core.NNSurrogate) {
		s.Epochs = 40
		s.MCPasses = 4
	})
	return core.NewShardedWrapper(oracle, fac, core.ShardedConfig{
		Router:          core.HashRouter{Shards: 2},
		MinTrainSamples: 8,
		UQThreshold:     1e9,
	})
}

// TestRestartRecoverySoak is the crash-recovery drill for the whole
// stack: a wire-served fleet publishes its trained generations into a
// registry; the process "dies" — including SIGKILL-equivalent deaths
// partway through publishing a new generation, emulated by a
// fault-injected filesystem that kills the publish protocol at assorted
// ops; a second incarnation on the same registry directory and wire
// address warm-starts every shard from the last durable generation and
// serves immediately with zero retraining and zero oracle traffic,
// while the resilient client from the first incarnation reconnects on
// its own.
func TestRestartRecoverySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	dir := filepath.Join(t.TempDir(), "reg")

	// ----- incarnation 1: cold start, train, publish, serve -----
	reg1, err := registry.Open(registry.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	oracle1 := &restartOracle{}
	w1 := restartWrapper(oracle1, 1)
	fl1 := fleet.New(fleet.Config{})
	if err := fl1.Register("pot", w1); err != nil {
		t.Fatal(err)
	}
	if _, err := fl1.BindRegistry("pot", fleet.RegistryConfig{
		Registry: reg1,
		OnError:  func(err error) { t.Error(err) },
	}); err != nil {
		t.Fatal(err)
	}
	design := tensor.NewMatrix(60, 2)
	rng := xrand.New(5)
	for i := 0; i < design.Rows; i++ {
		row := design.Row(i)
		row[0], row[1] = rng.Range(-1, 1), rng.Range(-1, 1)
	}
	if err := w1.Pretrain(design); err != nil {
		t.Fatal(err)
	}
	for si := 0; si < 2; si++ {
		if gen, ok := reg1.CurrentGeneration(registry.ShardKey("pot", si)); !ok || gen != 1 {
			t.Fatalf("shard %d published gen %d ok=%v, want 1", si, gen, ok)
		}
	}

	srv1 := NewServer(Config{Fleet: fl1})
	ln1, err := newLoopback()
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()
	go srv1.Serve(ln1)

	rc, err := DialResilient(addr, ResilientConfig{Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	y, std := make([]float64, 1), make([]float64, 1)
	query := func(i int) error {
		x := []float64{-0.8 + 0.05*float64(i%32), 0.3}
		_, qerr := rc.QueryInto("pot", x, y, std, time.Time{})
		return qerr
	}
	for i := 0; i < 32; i++ {
		if err := query(i); err != nil {
			t.Fatalf("incarnation 1 query %d: %v", i, err)
		}
	}

	// ----- the process dies. The wire goes dark mid-conversation. -----
	srv1.Close()
	fl1.Close()
	reg1.Close()

	// ----- SIGKILL-equivalent deaths mid-publish of generation 2 -----
	// Re-publishing the live model through a filesystem that crashes at
	// op k leaves exactly the on-disk wreckage of a process killed at
	// that point in the protocol: torn temp files, unsynced renames,
	// durable-but-uncommitted orphans.
	regClean, err := registry.Open(registry.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sur, base, _, err := registry.LoadSurrogate(regClean, registry.ShardKey("pot", 0), xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 6, 8, 11} {
		ffs := chaos.NewFaultFS(nil)
		ffs.Arm(k)
		regF, err := registry.Open(registry.Config{Dir: dir, FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := registry.PublishSurrogate(regF, registry.ShardKey("pot", 0), sur, base); err == nil {
			t.Fatalf("publish survived a crash at op %d", k)
		}
		regF.Close()
	}
	regClean.Close()

	// ----- incarnation 2: same dir, same address, fresh everything -----
	reg2, err := registry.Open(registry.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	oracle2 := &restartOracle{}
	w2 := restartWrapper(oracle2, 2)
	fl2 := fleet.New(fleet.Config{})
	defer fl2.Close()
	if err := fl2.Register("pot", w2); err != nil {
		t.Fatal(err)
	}
	warmed, err := fl2.BindRegistry("pot", fleet.RegistryConfig{
		Registry: reg2,
		OnError:  func(err error) { t.Error(err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if warmed != 2 {
		t.Fatalf("restart warmed %d shards, want 2", warmed)
	}
	st, _ := fl2.TenantStats("pot")
	if st.RegistryGeneration != 1 {
		t.Fatalf("restart serves registry generation %d, want the last durable 1", st.RegistryGeneration)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(Config{Fleet: fl2})
	go srv2.Serve(ln2)
	defer srv2.Close()

	// The resilient client reconnects on its own; give its repair loop a
	// bounded window to find the reborn server.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := query(0); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("resilient client never reconnected to the restarted server")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 64; i++ {
		if err := query(i); err != nil {
			t.Fatalf("post-restart query %d: %v", i, err)
		}
	}

	// Zero retraining, zero oracle traffic: every post-restart answer
	// came from the warm-started generation.
	if n := oracle2.runs.Load(); n != 0 {
		t.Fatalf("restarted process ran the oracle %d times", n)
	}
	for si, sh := range w2.Status() {
		if sh.Generation != -1 {
			t.Fatalf("shard %d generation %d after restart, want -1 (warm)", si, sh.Generation)
		}
	}
	if n := w2.TrainingSetSize(); n != 0 {
		t.Fatalf("restarted process accumulated %d training samples", n)
	}
}
