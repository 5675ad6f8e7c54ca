package netserve

import (
	"encoding/json"
	"net/http"
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
//	               Fleet.Stats() (QPS, mean batch, p50/p99, staleness,
//	               drifted shards, max drift ratio, quantized-serving
//	               fallbacks) plus the wire server's connection/frame
//	               counters under "_server".
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

// tenantHealth is the JSON shape of one tenant's /statsz entry.
type tenantHealth struct {
	Queries       int64   `json:"queries"`
	Rejected      int64   `json:"rejected"`
	Expired       int64   `json:"expired"`
	Panics        int64   `json:"panics"`
	InFlight      int64   `json:"in_flight"`
	QPS           float64 `json:"qps"`
	MeanBatch     float64 `json:"mean_batch"`
	P50Ns         int64   `json:"p50_ns"`
	P99Ns         int64   `json:"p99_ns"`
	Staleness     int     `json:"staleness"`
	DriftedShards int     `json:"drifted_shards"`
	MaxDriftRatio float64 `json:"max_drift_ratio"`
	QuantQueries  uint64  `json:"quant_queries"`
	QuantFallback uint64  `json:"quant_fallbacks"`
	RegGeneration uint64  `json:"registry_generation"`
	RegPublishes  int64   `json:"registry_publishes"`
	RegRollbacks  int64   `json:"registry_rollbacks"`
	RegQuarantine int64   `json:"registry_quarantines"`
	PlaceSource   string  `json:"placement_source,omitempty"`
	PlaceGen      uint64  `json:"placement_generation,omitempty"`
	PlaceWarm     int     `json:"placement_warm_shards,omitempty"`
}

// statsz is the JSON shape of /statsz.
type statsz struct {
	Time    time.Time               `json:"time"`
	Tenants map[string]tenantHealth `json:"tenants"`
	Server  *Stats                  `json:"_server,omitempty"`
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
		out := statsz{Time: time.Now(), Tenants: map[string]tenantHealth{}}
		if h.Fleet != nil {
			for name, st := range h.Fleet.Stats() {
				out.Tenants[name] = tenantHealth{
					Queries:       st.Queries,
					Rejected:      st.Rejected,
					Expired:       st.Expired,
					Panics:        st.Panics,
					InFlight:      st.InFlight,
					QPS:           st.QPS,
					MeanBatch:     st.MeanBatch,
					P50Ns:         st.P50.Nanoseconds(),
					P99Ns:         st.P99.Nanoseconds(),
					Staleness:     st.Staleness,
					DriftedShards: st.DriftedShards,
					MaxDriftRatio: st.MaxDriftRatio,
					QuantQueries:  st.QuantQueries,
					QuantFallback: st.QuantFallbacks,
					RegGeneration: st.RegistryGeneration,
					RegPublishes:  st.RegistryPublishes,
					RegRollbacks:  st.RegistryRollbacks,
					RegQuarantine: st.RegistryQuarantines,
					PlaceSource:   st.PlacementSource,
					PlaceGen:      st.PlacementGeneration,
					PlaceWarm:     st.PlacementWarmShards,
				}
			}
		}
		if h.Server != nil {
			st := h.Server.Stats()
			out.Server = &st
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	default:
		http.NotFound(w, r)
	}
}
