package netserve

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// gatedBackend holds every call at a gate until the test opens it, and
// tracks how many rows are inside it at once.
type gatedBackend struct {
	testBackend
	gate    chan struct{}
	entered chan int // rows of each call as it arrives

	mu           sync.Mutex
	inside, high int
}

func (g *gatedBackend) QueryBatchInto(xs *tensor.Matrix, res []core.BatchResult) error {
	g.mu.Lock()
	g.inside += xs.Rows
	if g.inside > g.high {
		g.high = g.inside
	}
	g.mu.Unlock()
	g.entered <- xs.Rows
	<-g.gate
	g.mu.Lock()
	g.inside -= xs.Rows
	g.mu.Unlock()
	return g.testBackend.QueryBatchInto(xs, res)
}

// TestReaderHeldAtInFlightBound drives the reader's back-pressure path: a
// peer writes 64 frames at once and reads nothing while the backend
// answers nothing. The reader must submit what it gathered when the
// bound stops it — or the bound's own rows could never complete — and
// then wait: exactly the bound's worth of rows reaches the backend. Once
// the gate opens and the peer reads, all 64 are answered exactly once
// with never more than the bound in flight, and the pools balance.
func TestReaderHeldAtInFlightBound(t *testing.T) {
	const bound, frames = 4, 64
	defer func(n int) { maxConnInFlight = n }(maxConnInFlight)
	maxConnInFlight = bound

	bk := &gatedBackend{
		testBackend: testBackend{in: 2, out: 1},
		gate:        make(chan struct{}),
		entered:     make(chan int, 2*frames),
	}
	_, srv, addr := newTestServer(t, fleet.Config{}, Config{}, map[string]serve.Backend{"m": bk})

	peer, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	var out []byte
	for i := 1; i <= frames; i++ {
		if out, err = appendRequest(out, "m", uint64(i), 0, 0, []float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := peer.Write(out); err != nil {
		t.Fatal(err)
	}

	for rows := 0; rows < bound; {
		rows += <-bk.entered
	}
	// The bound's rows are inside the backend, so the reader holds no
	// token it could decode another request with.
	if st := srv.Stats(); st.Requests > bound+1 || st.Responses != 0 {
		t.Fatalf("held at the bound with %d requests decoded and %d answered, want ≤ %d and 0",
			st.Requests, st.Responses, bound+1)
	}
	select {
	case n := <-bk.entered:
		t.Fatalf("%d more rows reached the backend past the bound", n)
	default:
	}

	close(bk.gate)
	peer.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(peer)
	var buf []byte
	seen := map[uint64]bool{}
	for i := 0; i < frames; i++ {
		if buf, err = ReadRawFrame(br, buf, DefaultMaxFrame); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		r, err := parseResponse(buf[lenPrefix:])
		if err != nil {
			t.Fatal(err)
		}
		if r.status != StatusOK || r.id < 1 || r.id > frames || seen[r.id] {
			t.Fatalf("response id %d status %d (seen before: %v)", r.id, r.status, seen[r.id])
		}
		seen[r.id] = true
	}
	bk.mu.Lock()
	high := bk.high
	bk.mu.Unlock()
	if high != bound {
		t.Errorf("backend held %d rows at once, want exactly the bound %d", high, bound)
	}

	peer.Close()
	srv.Close()
	if reqs, bursts := srv.poolBalance(); reqs != 0 || bursts != 0 {
		t.Errorf("pool balance (%d, %d) after drain, want (0, 0)", reqs, bursts)
	}
}
