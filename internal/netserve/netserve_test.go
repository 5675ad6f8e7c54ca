package netserve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// testBackend is a deterministic serve.Backend: y[j] = sum(x) + j, with
// optional per-call latency, a poison input that errors and one that
// panics, and an atomic call/row counter.
type testBackend struct {
	in, out int
	delay   time.Duration
	calls   atomic.Int64
	rows    atomic.Int64
}

const (
	poisonErr   = 1e9 // x[0] == poisonErr → row error
	poisonPanic = 2e9 // x[0] == poisonPanic → backend panic
)

func (b *testBackend) Dims() (int, int) { return b.in, b.out }

func (b *testBackend) QueryBatchInto(xs *tensor.Matrix, res []core.BatchResult) error {
	b.calls.Add(1)
	b.rows.Add(int64(xs.Rows))
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	for i := 0; i < xs.Rows; i++ {
		row := xs.Row(i)
		res[i].Err = nil
		res[i].Src = core.FromSurrogate
		if row[0] == poisonPanic {
			panic("testBackend: poisoned input")
		}
		if row[0] == poisonErr {
			res[i].Err = errors.New("testBackend: poisoned row")
			res[i].Y = nil
			res[i].Std = nil
			continue
		}
		s := 0.0
		for _, v := range row {
			s += v
		}
		if cap(res[i].Y) < b.out {
			res[i].Y = make([]float64, b.out)
			res[i].Std = make([]float64, b.out)
		}
		res[i].Y = res[i].Y[:b.out]
		res[i].Std = res[i].Std[:b.out]
		for j := 0; j < b.out; j++ {
			res[i].Y[j] = s + float64(j)
			res[i].Std[j] = 0.01
		}
	}
	return nil
}

// newTestServer stands up a fleet + wire server on loopback and returns
// the dial address. Tenants map name → backend.
func newTestServer(t testing.TB, fcfg fleet.Config, scfg Config, tenants map[string]serve.Backend) (*fleet.Fleet, *Server, string) {
	t.Helper()
	fl := fleet.New(fcfg)
	for name, b := range tenants {
		if err := fl.Register(name, b); err != nil {
			t.Fatal(err)
		}
	}
	scfg.Fleet = fl
	srv := NewServer(scfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		fl.Close()
	})
	return fl, srv, ln.Addr().String()
}

// querier is what the bare transport and the exported client share.
type querier interface {
	QueryInto(tenant string, x, y, std []float64, deadline time.Time) (WireResult, error)
}

// query runs one row through q with throwaway result buffers.
func query(q querier, tenant string, x []float64, deadline time.Time) (WireResult, error) {
	return q.QueryInto(tenant, x, make([]float64, 8), make([]float64, 8), deadline)
}

func TestWireRoundTrip(t *testing.T) {
	bk := &testBackend{in: 3, out: 2}
	_, _, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	cl, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	y := make([]float64, 2)
	std := make([]float64, 2)
	for i := 0; i < 200; i++ {
		x := []float64{float64(i), 0.5, -0.25}
		res, err := cl.QueryInto("m", x, y, std, time.Time{})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want := x[0] + x[1] + x[2]
		if len(res.Y) != 2 || math.Abs(res.Y[0]-want) > 1e-12 || math.Abs(res.Y[1]-(want+1)) > 1e-12 {
			t.Fatalf("query %d: got %v want [%v %v]", i, res.Y, want, want+1)
		}
		if res.Src != core.FromSurrogate {
			t.Fatalf("query %d: src = %v", i, res.Src)
		}
		if len(res.Std) != 2 || res.Std[0] != 0.01 {
			t.Fatalf("query %d: std = %v", i, res.Std)
		}
	}
}

// tapConn records the bytes a client connection writes and reads.
type tapConn struct {
	net.Conn
	mu      sync.Mutex
	out, in []byte
}

func (c *tapConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.out = append(c.out, b...)
	c.mu.Unlock()
	return c.Conn.Write(b)
}

func (c *tapConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.in = append(c.in, b[:n]...)
	c.mu.Unlock()
	return n, err
}

// take decodes and clears the recorded traffic, which must be exactly one
// request frame out and one response frame in.
func (c *tapConn) take(t *testing.T) (request, response) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	body := func(raw []byte) []byte {
		n := int(binary.BigEndian.Uint32(raw))
		if len(raw) != lenPrefix+n {
			t.Fatalf("recorded %d bytes, want one %d-byte frame", len(raw), lenPrefix+n)
		}
		return raw[lenPrefix:]
	}
	req, err := parseRequest(body(c.out))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := parseResponse(body(c.in))
	if err != nil {
		t.Fatal(err)
	}
	c.out, c.in = nil, nil
	return req, resp
}

// TestWireNoStdFlag pins the flag the client derives from its input: a
// nil std puts FlagNoStd on the wire and the response frame carries no
// std bytes; a non-nil std leaves the flag off and receives the row.
func TestWireNoStdFlag(t *testing.T) {
	bk := &testBackend{in: 2, out: 1}
	_, _, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	tap := &tapConn{}
	cl, err := Dial(addr, ClientConfig{Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		tap.Conn = c
		return tap, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	y := make([]float64, 1)
	res, err := cl.QueryInto("m", []float64{1, 2}, y, nil, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Std != nil || res.Y[0] != 3 {
		t.Fatalf("nil-std query: y = %v, std = %v", res.Y, res.Std)
	}
	req, resp := tap.take(t)
	if req.flags&FlagNoStd == 0 {
		t.Fatalf("nil-std request flags %#x, want FlagNoStd", req.flags)
	}
	if resp.nstd != 0 || len(resp.std) != 0 {
		t.Fatalf("FlagNoStd response carried %d std values", resp.nstd)
	}

	std := make([]float64, 1)
	res, err = cl.QueryInto("m", []float64{1, 2}, y, std, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Std) != 1 || res.Std[0] != 0.01 || res.Y[0] != 3 {
		t.Fatalf("std query: y = %v, std = %v", res.Y, res.Std)
	}
	req, resp = tap.take(t)
	if req.flags&FlagNoStd != 0 {
		t.Fatalf("std request flags %#x, want FlagNoStd clear", req.flags)
	}
	if resp.nstd != 1 {
		t.Fatalf("std response carried %d std values, want 1", resp.nstd)
	}
}

func TestWireExpiredDeadlineNeverReachesBackend(t *testing.T) {
	bk := &testBackend{in: 2, out: 1}
	fl, _, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	cl, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// A request whose deadline passed long ago must come back as
	// StatusExpired without the backend ever seeing it.
	expired := time.Now().Add(-time.Second)
	if _, err := query(cl, "m", []float64{1, 2}, expired); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired query returned %v, want ErrExpired", err)
	}
	if n := bk.calls.Load(); n != 0 {
		t.Fatalf("expired query reached the backend (%d calls)", n)
	}
	st, err := fl.TenantStats("m")
	if err != nil {
		t.Fatal(err)
	}
	if st.Expired != 1 {
		t.Fatalf("TenantStats.Expired = %d, want 1", st.Expired)
	}
	// A generous deadline serves normally.
	if _, err := query(cl, "m", []float64{1, 2}, time.Now().Add(time.Minute)); err != nil {
		t.Fatalf("live-deadline query failed: %v", err)
	}
	if bk.calls.Load() == 0 {
		t.Fatal("live-deadline query never reached the backend")
	}
}

func TestWireUnknownTenant(t *testing.T) {
	bk := &testBackend{in: 2, out: 1}
	_, _, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	cl, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := query(cl, "nope", []float64{1, 2}, time.Time{}); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("got %v, want ErrUnknownTenant", err)
	}
}

func TestWireOverloadRetryStatus(t *testing.T) {
	// One admission slot, slow backend: concurrent queries must shed with
	// an explicit RETRY status, never hang or vanish.
	bk := &testBackend{in: 2, out: 1, delay: 50 * time.Millisecond}
	_, _, addr := newTestServer(t,
		fleet.Config{MaxInFlight: 1, Coalescer: serve.Config{MaxBatch: 1}},
		Config{}, map[string]serve.Backend{"m": bk})
	cl, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 8
	var ok, retried atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := query(cl, "m", []float64{1, 2}, time.Time{})
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrRetry):
				retried.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok.Load()+retried.Load() != n {
		t.Fatalf("ok=%d retried=%d, want sum %d", ok.Load(), retried.Load(), n)
	}
	if ok.Load() == 0 {
		t.Fatal("every query shed; at least one should have been admitted")
	}
	if retried.Load() == 0 {
		t.Fatal("no query shed; admission bound did not bite")
	}
}

func TestWireRowErrorAndPanicContainment(t *testing.T) {
	bk := &testBackend{in: 2, out: 1}
	_, _, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	cl, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var re *RemoteError
	if _, err := query(cl, "m", []float64{poisonErr, 0}, time.Time{}); !errors.As(err, &re) {
		t.Fatalf("poisoned row returned %v, want *RemoteError", err)
	} else if !strings.Contains(re.Msg, "poisoned row") {
		t.Fatalf("remote error message %q", re.Msg)
	}
	if _, err := query(cl, "m", []float64{poisonPanic, 0}, time.Time{}); !errors.As(err, &re) {
		t.Fatalf("panicking backend returned %v, want *RemoteError", err)
	} else if !strings.Contains(re.Msg, "panicked") {
		t.Fatalf("remote error message %q", re.Msg)
	}
	// The connection survives both: a normal query still round-trips.
	res, err := query(cl, "m", []float64{2, 3}, time.Time{})
	if err != nil || res.Y[0] != 5 {
		t.Fatalf("post-poison query: %v %v", res.Y, err)
	}
}

// TestWireStatusMapping pins the status → error contract (OK, ErrRetry,
// ErrExpired, ErrUnknownTenant, *RemoteError) on the exported client, not
// only on the transport under it: the same assertions run through a bare
// transport and through DialResilient with one connection. The slow row
// holds the admission slot for 50ms, longer than the resilient client's
// whole retry ladder, so a shed still surfaces.
func TestWireStatusMapping(t *testing.T) {
	type client interface {
		querier
		Close() error
	}
	for _, tc := range []struct {
		name string
		dial func(addr string) (client, error)
	}{
		{"transport", func(addr string) (client, error) { return Dial(addr, ClientConfig{}) }},
		{"resilient", func(addr string) (client, error) {
			return DialResilient(addr, ResilientConfig{Conns: 1})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			slow := &testBackend{in: 2, out: 1, delay: 50 * time.Millisecond}
			_, _, addr := newTestServer(t,
				fleet.Config{MaxInFlight: 1, Coalescer: serve.Config{MaxBatch: 1}},
				Config{}, map[string]serve.Backend{"m": &testBackend{in: 2, out: 1}, "slow": slow})
			cl, err := tc.dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			res, err := query(cl, "m", []float64{2, 3}, time.Time{})
			if err != nil || len(res.Y) != 1 || res.Y[0] != 5 || res.Src != core.FromSurrogate {
				t.Fatalf("OK: got %+v, %v", res, err)
			}
			if _, err := query(cl, "m", []float64{1, 2}, time.Now().Add(-time.Second)); !errors.Is(err, ErrExpired) {
				t.Fatalf("past deadline: got %v, want ErrExpired", err)
			}
			if _, err := query(cl, "nope", []float64{1, 2}, time.Time{}); !errors.Is(err, ErrUnknownTenant) {
				t.Fatalf("unregistered tenant: got %v, want ErrUnknownTenant", err)
			}
			var re *RemoteError
			if _, err := query(cl, "m", []float64{poisonErr, 0}, time.Time{}); !errors.As(err, &re) ||
				!strings.Contains(re.Msg, "poisoned row") {
				t.Fatalf("row error: got %v, want *RemoteError naming the row", err)
			}
			// One admission slot held by a slow row: the second query sheds.
			held := make(chan error, 1)
			go func() {
				_, err := query(cl, "slow", []float64{1, 2}, time.Time{})
				held <- err
			}()
			for slow.calls.Load() == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			if _, err := query(cl, "slow", []float64{1, 2}, time.Time{}); !errors.Is(err, ErrRetry) {
				t.Fatalf("full admission window: got %v, want ErrRetry", err)
			}
			if err := <-held; err != nil {
				t.Fatalf("admitted query: %v", err)
			}
		})
	}
}

func TestWireGarbageFramesKillOnlyTheirConnection(t *testing.T) {
	bk := &testBackend{in: 2, out: 1}
	_, srv, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})

	for _, garbage := range [][]byte{
		{0x00, 0x00, 0x00, 0x00},             // zero-length frame
		{0xff, 0xff, 0xff, 0xff, 0x01},       // oversized declared length
		{0x00, 0x00, 0x00, 0x03, 9, 9, 9},    // bad version
		{0x00, 0x00, 0x00, 0x02, 0x01, 0x07}, // bad type
	} {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(garbage); err != nil {
			t.Fatal(err)
		}
		raw.SetReadDeadline(time.Now().Add(2 * time.Second))
		var one [1]byte
		if _, err := raw.Read(one[:]); err == nil {
			t.Fatalf("server answered garbage %v instead of closing", garbage)
		}
		raw.Close()
	}
	if n := srv.Stats().ProtoErrors; n < 4 {
		t.Fatalf("ProtoErrors = %d, want ≥ 4", n)
	}
	// A well-formed client on a fresh connection is unaffected.
	cl, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := query(cl, "m", []float64{1, 1}, time.Time{}); err != nil {
		t.Fatalf("post-garbage query failed: %v", err)
	}
}

func TestWireCrossConnectionCoalescing(t *testing.T) {
	// 16 connections, one blocking caller each: the per-tenant coalescer
	// must gather their requests into shared micro-batches even though no
	// two of them ever share a connection — the whole point of feeding
	// the wire into Coalescer.QueryInto. The backend dwell time makes
	// arrivals pile up so gathers have material to work with.
	bk := &testBackend{in: 2, out: 1, delay: 300 * time.Microsecond}
	fl, _, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})

	const conns = 16
	const perConn = 60
	var wg sync.WaitGroup
	for cI := 0; cI < conns; cI++ {
		cl, err := Dial(addr, ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(cl *Conn, seed int) {
			defer wg.Done()
			y := make([]float64, 1)
			std := make([]float64, 1)
			for i := 0; i < perConn; i++ {
				x := []float64{float64(seed), float64(i)}
				res, err := cl.QueryInto("m", x, y, std, time.Time{})
				if err != nil {
					t.Errorf("conn %d query %d: %v", seed, i, err)
					return
				}
				if want := x[0] + x[1]; math.Abs(res.Y[0]-want) > 1e-12 {
					t.Errorf("conn %d query %d: got %v want %v", seed, i, res.Y[0], want)
					return
				}
			}
		}(cl, cI)
	}
	wg.Wait()

	st, err := fl.TenantStats("m")
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != conns*perConn {
		t.Fatalf("tenant served %d queries, want %d", st.Queries, conns*perConn)
	}
	if st.MeanBatch < 2 {
		t.Fatalf("mean batch %.2f across %d connections — no cross-connection coalescing", st.MeanBatch, conns)
	}
	t.Logf("mean batch %.1f over %d batches from %d connections", st.MeanBatch, st.Batches, conns)
}

func TestWireServerCloseDrains(t *testing.T) {
	bk := &testBackend{in: 2, out: 1, delay: 2 * time.Millisecond}
	fl := fleet.New(fleet.Config{})
	if err := fl.Register("m", bk); err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	srv := NewServer(Config{Fleet: fl})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	cl, err := Dial(ln.Addr().String(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Keep a stream of queries in flight while the server shuts down:
	// every single one must resolve — answered or failed — never hang.
	const goroutines = 8
	var resolved, served atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			y := make([]float64, 1)
			std := make([]float64, 1)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := cl.QueryInto("m", []float64{float64(g), float64(i)}, y, std, time.Time{})
				resolved.Add(1)
				if err == nil {
					served.Add(1)
				}
			}
		}(g)
	}
	time.Sleep(30 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server Close did not drain within 5s")
	}
	close(stop)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no query served before shutdown")
	}
	t.Logf("resolved %d queries (%d served) across shutdown", resolved.Load(), served.Load())
	// After Close the client fails fast rather than hanging.
	if _, err := query(cl, "m", []float64{1, 1}, time.Time{}); err == nil {
		t.Fatal("query succeeded after server Close")
	}
}

func TestWireSteadyStateAllocs(t *testing.T) {
	// The end-to-end loopback path (client encode+flush, server decode,
	// fleet dispatch, response encode+flush, client decode) must settle
	// to ~zero heap allocations per query once every pool is warm. The
	// benchmark gate enforces exactly 0 on the recorded snapshot; here a
	// small tolerance absorbs GC-emptied sync.Pools refilling mid-run.
	if raceEnabled {
		t.Skip("race runtime drops sync.Pool puts; alloc counts are meaningless")
	}
	bk := &testBackend{in: 2, out: 1}
	_, _, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	cl, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	x := []float64{0.25, -0.5}
	y := make([]float64, 1)
	std := make([]float64, 1)
	for i := 0; i < 512; i++ { // warm every pool
		if _, err := cl.QueryInto("m", x, y, std, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(2000, func() {
		if _, err := cl.QueryInto("m", x, y, std, time.Time{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 1.0 {
		t.Fatalf("steady-state wire query allocates %.2f objects/op, want ≈ 0", avg)
	}
}

func TestHealthEndpoints(t *testing.T) {
	bk := &testBackend{in: 2, out: 1}
	fl, srv, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	cl, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 32; i++ {
		if _, err := query(cl, "m", []float64{1, 2}, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}

	h := &Health{Fleet: fl, Server: srv}
	ts := httptest.NewServer(h)
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz = %d with a registered tenant", code)
	}
	code, body := get("/statsz")
	if code != 200 {
		t.Fatalf("/statsz = %d", code)
	}
	var parsed struct {
		Tenants map[string]map[string]any `json:"tenants"`
		Server  map[string]any            `json:"_server"`
	}
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Fatalf("/statsz not JSON: %v\n%s", err, body)
	}
	m, ok := parsed.Tenants["m"]
	if !ok {
		t.Fatalf("/statsz missing tenant m: %s", body)
	}
	for _, key := range []string{"queries", "qps", "p50_ns", "p99_ns", "staleness", "drifted_shards", "max_drift_ratio", "quant_fallbacks"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("/statsz tenant entry missing %q: %s", key, body)
		}
	}
	if q, _ := m["queries"].(float64); q < 32 {
		t.Fatalf("/statsz queries = %v, want ≥ 32", m["queries"])
	}
	if parsed.Server == nil {
		t.Fatalf("/statsz missing _server block: %s", body)
	}

	// Readiness follows the fleet: with every tenant gone it reports 503.
	if err := fl.Deregister("m"); err != nil {
		t.Fatal(err)
	}
	if code, _ := get("/readyz"); code != 503 {
		t.Fatalf("/readyz = %d with no tenants, want 503", code)
	}
}

func TestWireConcurrentClientsManyTenants(t *testing.T) {
	tenants := map[string]serve.Backend{}
	for i := 0; i < 4; i++ {
		tenants[fmt.Sprintf("t%d", i)] = &testBackend{in: 2, out: 1}
	}
	fl, _, addr := newTestServer(t, fleet.Config{}, Config{}, tenants)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		cl, err := Dial(addr, ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(cl *Conn, c int) {
			defer wg.Done()
			y := make([]float64, 1)
			std := make([]float64, 1)
			name := fmt.Sprintf("t%d", c%4)
			for i := 0; i < 100; i++ {
				if _, err := cl.QueryInto(name, []float64{1, float64(i)}, y, std, time.Time{}); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(cl, c)
	}
	wg.Wait()
	total := int64(0)
	for _, st := range fl.Stats() {
		total += st.Queries
	}
	if total != 800 {
		t.Fatalf("fleet served %d queries, want 800", total)
	}
}

// BenchmarkWireLoopback is the package-local alloc probe for the wire
// path; the repo-root BenchmarkWireQPS is the recorded headline number.
func BenchmarkWireLoopback(b *testing.B) {
	bk := &testBackend{in: 2, out: 1}
	_, _, addr := newTestServer(b, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})
	cl, err := Dial(addr, ClientConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	x := []float64{0.25, -0.5}
	y := make([]float64, 1)
	std := make([]float64, 1)
	for i := 0; i < 512; i++ {
		if _, err := cl.QueryInto("m", x, y, std, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.QueryInto("m", x, y, std, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
}
