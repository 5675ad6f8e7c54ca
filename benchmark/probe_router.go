package main

// The router's rung of the ladder is the full topology: routedStack's own
// wireCall through the router.

// routerLayers reports the forwarding plane's work during a traced
// routed workload: frames per backend write run and per Write call
// (routed_closed/rows_per_s, cpu_us_per_row), Retry frames the router
// answered itself, and how unevenly the ring placed the tenants (1 =
// even; routed_closed/latency_p99_us).
func routerLayers(s *routedStack, m metrics) {
	st := s.rt.Stats()
	perWorker := map[string]int{}
	most := 0
	for _, addr := range s.rt.Placements() {
		perWorker[addr]++
		if perWorker[addr] > most {
			most = perWorker[addr]
		}
	}
	m.set("router.frames_per_burst", ratio(float64(st.Frames), float64(st.Bursts)))
	m.set("router.rows_per_write", ratio(float64(st.Frames), float64(s.hopRouterOut.writes.Load())))
	m.set("router.retry_share", ratio(float64(st.Retries), float64(st.Frames)))
	m.set("router.placement_skew", ratio(float64(most), float64(len(s.names))/float64(len(s.addrs))))
}
