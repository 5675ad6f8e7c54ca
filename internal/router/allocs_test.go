package router

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/netserve"
)

// TestRoutedSteadyStateAllocs pins the forwarder's perf contract: once
// placements settle and every pool is warm, a routed query — client
// encode, frontend raw read + id patch + splice, worker round trip,
// response demux + splice back, client decode — settles to ~zero heap
// allocations. The benchmark gate enforces exactly 0 on the recorded
// snapshot; the tolerance here absorbs GC-emptied sync.Pools refilling.
func TestRoutedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool puts; alloc counts are meaningless")
	}
	if testing.Short() {
		t.Skip("spawns a worker stack")
	}
	t.Run("one tenant", func(t *testing.T) {
		dir := t.TempDir()
		w := startWorker(t, filepath.Join(dir, "w"), 1)
		defer w.kill()

		// No mirror registry: the mirror loop's periodic stat calls would
		// show up as background allocations mid-measurement.
		rt, err := New(Config{Workers: []string{w.addr}, Tenants: []string{"m"}, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go rt.Serve(ln)
		rc := dialRouter(t, ln.Addr().String())
		defer rc.Close()

		x := []float64{0.25, -0.5}
		y, std := make([]float64, 1), make([]float64, 1)
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if _, qerr := rc.QueryInto("m", x, y, std, time.Now().Add(time.Second)); qerr == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		// Zero deadline, like the wire-path allocation tests: a deadline arms
		// a fresh time.Timer inside the client, which is caller-side cost, not
		// the forwarder's.
		for i := 0; i < 512; i++ { // warm every pool on both hops
			if _, err := rc.QueryInto("m", x, y, std, time.Time{}); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(2000, func() {
			if _, err := rc.QueryInto("m", x, y, std, time.Time{}); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 1.0 {
			t.Fatalf("steady-state routed query allocates %.2f objects/op, want ≈ 0", avg)
		}
		t.Logf("routed steady-state allocs/op: %.3f", avg)
	})

	// The same contract when the frames of one read go to four tenants on
	// two workers: grouping them by destination allocates nothing either.
	t.Run("interleaved", func(t *testing.T) {
		_, addr, tenants, _ := twoByTwo(t)
		p := dialRaw(t, addr)
		defer p.c.Close()
		write := interleaved16(tenants)
		round := func() {
			if _, err := p.c.Write(write); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				if _, status := p.next(t); status != netserve.StatusOK {
					t.Fatalf("status %d", status)
				}
			}
		}
		for i := 0; i < 64; i++ { // warm every pool on both hops
			round()
		}
		avg := testing.AllocsPerRun(500, round)
		if avg > 1.0 {
			t.Fatalf("steady-state interleaved write of 16 allocates %.2f objects, want ≈ 0", avg)
		}
		t.Logf("routed interleaved allocs per 16 frames: %.3f", avg)
	})
}
