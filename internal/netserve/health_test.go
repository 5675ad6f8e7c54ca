package netserve

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
)

// TestHealthMetricsz reads /metricsz from a live fleet's Health: the
// runtime/metrics dump must be JSON, count the running goroutines and
// carry histograms.
func TestHealthMetricsz(t *testing.T) {
	bk := &testBackend{in: 2, out: 1}
	fl, srv, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	cl, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := query(cl, "m", []float64{1, 2}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(&Health{Fleet: fl, Server: srv})
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("/metricsz = %d (%v): %s", resp.StatusCode, err, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("/metricsz is not JSON: %v", err)
	}
	if n, _ := m["/sched/goroutines:goroutines"].(float64); n <= 0 {
		t.Errorf("/metricsz reports %v goroutines", m["/sched/goroutines:goroutines"])
	}
	if _, ok := m["/gc/heap/allocs-by-size:bytes"].(map[string]any); !ok {
		t.Errorf("/metricsz carries no histogram: %T", m["/gc/heap/allocs-by-size:bytes"])
	}
}
