package main

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/serve"
)

// serveRung enters the request stream at serve: one Coalescer per tenant
// straight over the tenant's backend, callers blocked in QueryInto.
func serveRung(s *routedStack) (call func(c int) rowCall, closeAll func()) {
	cos := make([]*serve.Coalescer, len(s.backends[0]))
	for t, b := range s.backends[0] {
		cos[t] = serve.NewCoalescer(b, serve.Config{})
	}
	call = func(int) rowCall {
		return func(tenant int, x, y, std []float64) (bool, error) {
			res, err := cos[tenant].QueryInto(x, y, std)
			return err == nil && res.Src == core.FromSurrogate, err
		}
	}
	return call, func() {
		for _, co := range cos {
			co.Close()
		}
	}
}

// serveLayers reports the coalescers' work during a traced routed
// workload: how many rows each backend dispatch carried and what share
// of the machine the backends were busy. Both should move
// routed_closed/rows_per_s.
func serveLayers(e *env, s *routedStack, res *result, m metrics) {
	var queries, batches int64
	for _, fl := range s.fleets {
		for _, st := range fl.Stats() {
			queries += st.Queries
			batches += st.Batches
		}
	}
	_, _, busy := e.tr.sum(spanBackend)
	m.set("serve.mean_batch", ratio(float64(queries), float64(batches)))
	m.set("serve.backend_busy_share", ratio(busy.Seconds(), res.wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
}
