package repro

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/netserve"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// BenchmarkRoutedQPS is BenchmarkWireQPS with the dispatch tier in the
// middle: the same 4 tenants and 16 clients per tenant, but every query
// crosses two loopback TCP hops — client → router → worker — with the
// router splicing raw frames between them (consistent-hash placement, id
// patching, burst forwarding; no row ever decoded in the middle). The
// acceptance bar (gated by bench_diff in CI) is 0 allocs/op in steady
// state and ≥0.7× BenchmarkWireQPS tenants=4 throughput: the extra hop
// must cost one more framing+syscall layer, not allocations or lost
// coalescing.
//
// Both workers serve every tenant, so placement is pure ring choice
// (on-demand, no artifact pushes) and the benchmark measures the
// forwarding plane alone.
func BenchmarkRoutedQPS(b *testing.B) {
	const clientsPerTenant = 16
	const tenants = 4
	names := make([]string, tenants)
	for t := 0; t < tenants; t++ {
		names[t] = fmt.Sprintf("t%d", t)
	}

	workerAddrs := make([]string, 2)
	for w := range workerAddrs {
		fl := fleet.New(fleet.Config{Coalescer: serve.Config{MaxBatch: 64}})
		defer fl.Close()
		for _, name := range names {
			if err := fl.Register(name, benchWrapper(b)); err != nil {
				b.Fatal(err)
			}
		}
		srv := netserve.NewServer(netserve.Config{Fleet: fl})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(ln)
		defer srv.Close()
		workerAddrs[w] = ln.Addr().String()
	}

	rt, err := router.New(router.Config{Workers: workerAddrs})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go rt.Serve(ln)

	clients := clientsPerTenant * tenants
	conns := make([]*netserve.ResilientClient, tenants)
	for i := range conns {
		cl, err := netserve.DialResilient(ln.Addr().String(), netserve.ResilientConfig{Conns: 1})
		if err != nil {
			b.Fatal(err)
		}
		conns[i] = cl
		defer cl.Close()
	}

	// Warm every pool on all three processes (client pending, router
	// frame + remap, worker reqCtx) before counting allocations.
	var warm sync.WaitGroup
	for i := 0; i < clients; i++ {
		warm.Add(1)
		go func(cl *netserve.ResilientClient, name string) {
			defer warm.Done()
			y := make([]float64, 1)
			std := make([]float64, 1)
			for j := 0; j < 64; j++ {
				if _, err := cl.QueryInto(name, []float64{0.1, 0.2}, y, std, time.Time{}); err != nil {
					b.Error(err)
					return
				}
			}
		}(conns[i%tenants], names[i%tenants])
	}
	warm.Wait()

	per := b.N / clients
	if per == 0 {
		per = 1
	}
	b.SetParallelism(1)
	b.ReportAllocs()
	b.ResetTimer()
	var lat stats.Hist // Record is lock-free: every client records into this one
	var wg sync.WaitGroup
	for t := 0; t < tenants; t++ {
		for c := 0; c < clientsPerTenant; c++ {
			wg.Add(1)
			go func(cl *netserve.ResilientClient, name string, seed uint64) {
				defer wg.Done()
				rng := xrand.New(seed)
				x := make([]float64, 2)
				y := make([]float64, 1)
				std := make([]float64, 1)
				for i := 0; i < per; i++ {
					x[0] = rng.Range(-2, 2)
					x[1] = rng.Range(-1, 1)
					sample := i&7 == 0
					var t0 time.Time
					if sample {
						t0 = time.Now()
					}
					if _, err := cl.QueryInto(name, x, y, std, time.Time{}); err != nil {
						b.Error(err)
						return
					}
					if sample {
						lat.RecordSince(t0)
					}
				}
			}(conns[t], names[t], uint64(0xd0e0+31*t+c))
		}
	}
	wg.Wait()
	b.StopTimer()
	qps := float64(per*clients) / b.Elapsed().Seconds()
	b.ReportMetric(qps, "queries/s")
	st := rt.Stats()
	if st.Frames > 0 {
		b.ReportMetric(float64(st.Frames)/float64(st.Bursts), "frames/burst")
	}
	b.ReportMetric(float64(lat.Percentile(0.50).Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(lat.Percentile(0.99).Nanoseconds()), "p99-ns")
}
