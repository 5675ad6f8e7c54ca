package repro

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/netserve"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// BenchmarkWireQPS is the network mirror of BenchmarkFleetQPS: the same
// tenants, the same 16 clients per tenant, the same single-point query
// stream — but every query crosses a loopback TCP connection through the
// length-prefixed wire protocol. The acceptance bar (gated by bench_diff
// in CI) is 0 allocs/op in steady state and ≥50% of the in-process
// BenchmarkFleetQPS throughput at tenants=4: the wire must cost framing
// and syscalls, not allocations or lost batching.
//
// Connection topology: one ResilientClient with one pooled connection per
// tenant, multiplexed by that tenant's 16 client goroutines — the client
// every caller gets (breaker check, pick, retry accounting included), at
// the transport's designed operating point: concurrent callers' frames
// share buffered writes, so a 16-deep request pipeline per connection
// amortizes syscalls on both sides, while the per-tenant coalescer still
// gathers across the tenants' separate connections.
func BenchmarkWireQPS(b *testing.B) {
	const clientsPerTenant = 16
	for _, tenants := range []int{1, 4} {
		b.Run(fmt.Sprintf("tenants=%d", tenants), func(b *testing.B) {
			fl := fleet.New(fleet.Config{Coalescer: serve.Config{MaxBatch: 64}})
			defer fl.Close()
			names := make([]string, tenants)
			for t := 0; t < tenants; t++ {
				names[t] = fmt.Sprintf("t%d", t)
				if err := fl.Register(names[t], benchWrapper(b)); err != nil {
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

			// Warm every pool (server reqCtx, client pending, frame
			// buffers, coalescer batches) before counting allocations.
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
							// Sample latency 1-in-8: full-rate stamping
							// costs two clock reads per query, visible
							// at this throughput on one core.
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
					}(conns[t], names[t], uint64(0xf1e0+31*t+c))
				}
			}
			wg.Wait()
			b.StopTimer()
			qps := float64(per*clients) / b.Elapsed().Seconds()
			b.ReportMetric(qps, "queries/s")
			b.ReportMetric(qps/float64(tenants), "queries/s/tenant")
			b.ReportMetric(float64(lat.Percentile(0.50).Nanoseconds()), "p50-ns")
			b.ReportMetric(float64(lat.Percentile(0.99).Nanoseconds()), "p99-ns")
			if st, err := fl.TenantStats(names[0]); err == nil {
				b.ReportMetric(st.MeanBatch, "mean-batch")
			}
		})
	}
}
