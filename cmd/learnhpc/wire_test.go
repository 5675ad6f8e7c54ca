package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"net"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/netserve"
)

// serve must refuse, before it opens the registry or builds a tenant, a
// tenant list it could not serve in full (an unknown, empty or repeated
// name) and a -rollback-factor that would arm no rollback: a positive one
// without -registry, and a negative or non-finite one.
func TestCheckServe(t *testing.T) {
	all := []string{"potential", "tissue", "epi"}
	for _, c := range []struct {
		tenants  []string
		regDir   string
		rollback float64
		ok       bool
	}{
		{all, "", 0, true},
		{all, "/reg", 0, true},
		{all, "/reg", 3, true},
		{[]string{"epi"}, "/reg", 0, true},
		{all, "", 3, false},
		{all, "", -1, false},
		{all, "/reg", -1, false},
		{all, "/reg", math.NaN(), false},
		{all, "/reg", math.Inf(1), false},
		{[]string{"potential", "bogus"}, "/reg", 0, false},
		{[]string{"potential", ""}, "/reg", 0, false}, // -tenants potential,
		{[]string{""}, "", 0, false},                  // -tenants ""
		{[]string{"epi", "potential", "epi"}, "/reg", 0, false},
	} {
		if err := checkServe(c.tenants, c.regDir, c.rollback); (err == nil) != c.ok {
			t.Errorf("checkServe(%q, %q, %v) = %v, want ok %v", c.tenants, c.regDir, c.rollback, err, c.ok)
		}
	}
}

// loadtest must refuse, before it dials, a worker count that would panic
// in make or send nothing, and a duration that sends nothing.
func TestCheckLoad(t *testing.T) {
	for _, c := range []struct {
		workers int
		dur     time.Duration
		ok      bool
	}{
		{64, 5 * time.Second, true},
		{1, time.Nanosecond, true},
		{0, 5 * time.Second, false},
		{-1, 5 * time.Second, false},
		{16, 0, false},
		{16, -time.Second, false},
		{0, 0, false},
	} {
		if err := checkLoad(c.workers, c.dur); (err == nil) != c.ok {
			t.Errorf("checkLoad(%d, %v) = %v, want ok %v", c.workers, c.dur, err, c.ok)
		}
	}
}

// A loadtest against a server whose fleet lacks the tenant counts every
// query failed, and its latency line holds no sample: a failed query's
// round trip is not a serving latency. The failures trip the tenant's
// breaker, and the callers then pause instead of spinning on its local
// sheds: two callers fail a few dozen times in 50 ms, not the ~10^5 a
// spinning pair does.
func TestDriveRecordsOnlyAnswered(t *testing.T) {
	fl := fleet.New(fleet.Config{})
	defer fl.Close()
	srv := netserve.NewServer(netserve.Config{Fleet: fl})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	cl, err := netserve.DialResilient(ln.Addr().String(), netserve.ResilientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	c := drive(cl, []string{"absent"}, 2, 50*time.Millisecond)
	if c.failed.Load() == 0 || c.ok.Load() != 0 {
		t.Fatalf("ok=%d shed=%d failed=%d, want only failures", c.ok.Load(), c.shed.Load(), c.failed.Load())
	}
	if lat := c.lat.String(); !strings.HasPrefix(lat, "n=0 ") {
		t.Fatalf("latency %s, want no sample", lat)
	}
	if f := c.failed.Load(); f > 200 {
		t.Fatalf("failed=%d in 50ms: callers spin on the open breaker", f)
	}
}

// TestHealthMuxServesProfiles makes one request to each endpoint serve's
// -health address offers for a live fleet: the Health pages, the pprof
// index, a named profile (which must decode as a non-empty gzip stream),
// the CPU profile, a symbol lookup and the execution trace.
func TestHealthMuxServesProfiles(t *testing.T) {
	fl := fleet.New(fleet.Config{})
	defer fl.Close()
	srv := netserve.NewServer(netserve.Config{Fleet: fl})
	defer srv.Close()
	ts := httptest.NewServer(healthMux(&netserve.Health{Fleet: fl, Server: srv}))
	defer ts.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s = %d: %s", path, resp.StatusCode, body)
		}
		return body
	}

	get("/healthz")
	get("/statsz")
	get("/metricsz")
	if body := get("/debug/pprof/"); !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("pprof index lists no goroutine profile:\n%s", body)
	}
	zr, err := gzip.NewReader(bytes.NewReader(get("/debug/pprof/heap")))
	if err != nil {
		t.Fatalf("heap profile is not gzip: %v", err)
	}
	if prof, err := io.ReadAll(zr); err != nil || len(prof) == 0 {
		t.Errorf("heap profile decodes to %d bytes (%v)", len(prof), err)
	}
	if len(get("/debug/pprof/profile?seconds=1")) == 0 {
		t.Error("empty CPU profile")
	}
	pc := reflect.ValueOf(TestHealthMuxServesProfiles).Pointer()
	if body := get(fmt.Sprintf("/debug/pprof/symbol?%#x", pc)); !bytes.Contains(body, []byte("TestHealthMuxServesProfiles")) {
		t.Errorf("symbol lookup of %#x answered:\n%s", pc, body)
	}
	if len(get("/debug/pprof/trace?seconds=0.1")) == 0 {
		t.Error("empty execution trace")
	}
}
