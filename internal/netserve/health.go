package netserve

import (
	"encoding/json"
	"math"
	"net/http"
	"runtime/metrics"
	"time"

	"repro/internal/fleet"
)

// Health is the HTTP health/readiness/stats face of a served fleet, the
// surface an orchestrator probes and scrapes:
//
//	GET /healthz — liveness: 200 while the process runs.
//	GET /readyz  — readiness: 200 once at least one tenant is registered
//	               (and Ready, if set, agrees); 503 otherwise.
//	GET /statsz  — JSON per-tenant serving stats straight from
//	               Fleet.Stats() (QPS, mean batch, p50/p99 over the
//	               bursts since the previous scrape, staleness, drifted
//	               shards, max drift ratio, quantized-serving fallbacks)
//	               plus the wire server's connection/frame counters under
//	               "_server".
//	GET /metricsz — JSON dump of every runtime/metrics sample, by name
//	               (a histogram as its counts and bucket edges, an
//	               unbounded edge as null).
//
// Durations are reported in nanoseconds (Go's time.Duration JSON form).
// Health is an http.Handler; mount it on any mux or serve it directly.
type Health struct {
	// Fleet supplies the per-tenant stats (required).
	Fleet *fleet.Fleet
	// Server, when set, adds wire counters to /statsz.
	Server *Server
	// Ready, when set, gates /readyz beyond the has-tenants check (e.g.
	// "every tenant's staleness below a bound").
	Ready func() bool
}

// statsz is the JSON shape of /statsz.
type statsz struct {
	Time    time.Time                    `json:"time"`
	Tenants map[string]fleet.TenantStats `json:"tenants"`
	Server  *Stats                       `json:"_server,omitempty"`
}

// ServeHTTP implements http.Handler.
func (h *Health) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	case "/readyz":
		if h.Server != nil && h.Server.Draining() {
			// Draining flips not-ready before listeners close, so the
			// balancer routes around this replica while in-flight work
			// still completes.
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		ready := h.Fleet != nil && len(h.Fleet.Tenants()) > 0
		if ready && h.Ready != nil {
			ready = h.Ready()
		}
		if !ready {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ready\n"))
	case "/statsz":
		out := statsz{Time: time.Now(), Tenants: map[string]fleet.TenantStats{}}
		if h.Fleet != nil {
			out.Tenants = h.Fleet.Stats()
		}
		if h.Server != nil {
			st := h.Server.Stats()
			out.Server = &st
		}
		writeJSON(w, out)
	case "/metricsz":
		writeJSON(w, runtimeMetrics())
	default:
		http.NotFound(w, r)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// runtimeMetrics reads every supported runtime/metrics sample.
func runtimeMetrics() map[string]any {
	descs := metrics.All()
	samples := make([]metrics.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	metrics.Read(samples)
	out := make(map[string]any, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = s.Value.Uint64()
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			edges := make([]*float64, len(h.Buckets))
			for i := range h.Buckets {
				if !math.IsInf(h.Buckets[i], 0) {
					edges[i] = &h.Buckets[i]
				}
			}
			out[s.Name] = map[string]any{"counts": h.Counts, "buckets": edges}
		}
	}
	return out
}
