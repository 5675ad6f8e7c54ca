package router

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/netserve"
)

// rawPeer is a frontend caller that speaks the wire format by hand: whole
// writes of prebuilt frames, responses read back one frame at a time.
type rawPeer struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
}

func dialRaw(t *testing.T, addr string) *rawPeer {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &rawPeer{c: c, br: bufio.NewReader(c)}
}

// next reads one response frame and returns its id and status.
func (p *rawPeer) next(t *testing.T) (id uint64, status byte) {
	t.Helper()
	p.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var err error
	if p.buf, err = netserve.ReadRawFrame(p.br, p.buf, netserve.DefaultMaxFrame); err != nil {
		t.Fatalf("reading a response: %v", err)
	}
	id, ok := netserve.RawResponseID(p.buf)
	if !ok {
		t.Fatalf("response of %d bytes carries no id", len(p.buf))
	}
	return id, p.buf[4+2]
}

// interleaved16 is one frontend write: 16 frames, ids 1..16, cycling the
// four tenants so that no two neighbours share a tenant.
func interleaved16(tenants []string) []byte {
	var out []byte
	for i := 0; i < 16; i++ {
		out = append(out, buildQueryFrame(tenants[i%len(tenants)], uint64(i+1), []float64{0.1 * float64(i), -0.2})...)
	}
	return out
}

// twoByTwo stands up two workers behind a router under fixed worker
// names (resolved by a Dialer, as benchmark/stack.go does, so the ring —
// and with it the placement — is the same on every run), waits until all
// four tenants serve, and returns each tenant's worker.
func twoByTwo(t *testing.T) (rt *Router, addr string, tenants []string, owner map[string]*testWorker) {
	t.Helper()
	dir := t.TempDir()
	names := []string{"wk0:1", "wk1:1"}
	byName := map[string]*testWorker{}
	for i, name := range names {
		w := startWorker(t, filepath.Join(dir, fmt.Sprint("w", i)), uint64(i+1))
		t.Cleanup(w.kill)
		byName[name] = w
	}
	tenants = []string{"t0", "t1", "t2", "t3"}
	rt, err := New(Config{Workers: names, Tenants: tenants, Logf: t.Logf,
		Dialer: func(name string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", byName[name].addr, timeout)
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.Serve(ln)
	addr = ln.Addr().String()

	rc := dialRouter(t, addr)
	defer rc.Close()
	y, std := make([]float64, 1), make([]float64, 1)
	for _, tn := range tenants {
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, err := rc.QueryInto(tn, []float64{0.3, -0.2}, y, std, time.Now().Add(time.Second))
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("tenant %s never served: %v", tn, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	owner = map[string]*testWorker{}
	perWorker := map[string]int{}
	for tn, name := range rt.Placements() {
		owner[tn] = byName[name]
		perWorker[name]++
	}
	if perWorker[names[0]] != 2 || perWorker[names[1]] != 2 {
		t.Fatalf("placement %v is not 2:2", rt.Placements())
	}
	return rt, addr, tenants, owner
}

// TestInterleavedBurstGathers pins the gather rule end to end. One
// frontend write of 16 frames cycling 4 tenants holds no contiguous run
// for any destination, yet it must reach each worker as one chunk and
// each tenant's coalescer as one burst: the frames are grouped by
// destination among what is already buffered, not by adjacency.
func TestInterleavedBurstGathers(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker stacks")
	}
	rt, addr, tenants, owner := twoByTwo(t)
	p := dialRaw(t, addr)
	defer p.c.Close()

	type counts struct{ queries, batches int64 }
	tenantCounts := func() map[string]counts {
		m := map[string]counts{}
		for _, tn := range tenants {
			st, err := owner[tn].fl.TenantStats(tn)
			if err != nil {
				t.Fatal(err)
			}
			m[tn] = counts{st.Queries, st.Batches}
		}
		return m
	}
	before, tBefore := rt.Stats(), tenantCounts()

	const rounds = 8
	write := interleaved16(tenants)
	for r := 0; r < rounds; r++ {
		if _, err := p.c.Write(write); err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		for i := 0; i < 16; i++ {
			id, status := p.next(t)
			if status != netserve.StatusOK {
				t.Fatalf("round %d: id %d answered status %d", r, id, status)
			}
			if id < 1 || id > 16 || seen[id] {
				t.Fatalf("round %d: id %d unexpected or answered twice", r, id)
			}
			seen[id] = true
		}
	}

	after, tAfter := rt.Stats(), tenantCounts()
	frames, bursts := after.Frames-before.Frames, after.Bursts-before.Bursts
	if frames != 16*rounds {
		t.Fatalf("router forwarded %d frames, want %d", frames, 16*rounds)
	}
	if perBurst := float64(frames) / float64(bursts); perBurst < 4 {
		t.Errorf("%.2f frames per backend flush (%d/%d), want ≥ 4: interleaved tenants are not gathered by worker",
			perBurst, frames, bursts)
	}
	for _, tn := range tenants {
		q, b := tAfter[tn].queries-tBefore[tn].queries, tAfter[tn].batches-tBefore[tn].batches
		if q != 4*rounds {
			t.Errorf("tenant %s served %d rows, want %d", tn, q, 4*rounds)
		}
		if mean := float64(q) / float64(b); mean < 2 {
			t.Errorf("tenant %s mean batch %.2f (%d/%d), want ≥ 2: its rows of one read are not one burst", tn, mean, q, b)
		}
	}
}

// heldWorker is a backend that reads query frames and answers none of
// them until released, so the router's in-flight counts only grow.
type heldWorker struct {
	ln      net.Listener
	got     chan uint64 // id of each frame as it arrives
	release chan struct{}
}

func startHeldWorker(t *testing.T) *heldWorker {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &heldWorker{ln: ln, got: make(chan uint64, 64), release: make(chan struct{})}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		owed := make(chan uint64, 64)
		go func() {
			<-h.release
			for id := range owed {
				c.Write(netserve.AppendStatusFrame(nil, id, netserve.StatusOK))
			}
		}()
		defer close(owed)
		br := bufio.NewReader(c)
		var buf []byte
		for {
			if buf, err = netserve.ReadRawFrame(br, buf, netserve.DefaultMaxFrame); err != nil {
				return
			}
			id := binary.BigEndian.Uint64(buf[4+4:])
			owed <- id
			h.got <- id
		}
	}()
	return h
}

// TestInFlightBoundsAnswerRetry lowers each in-flight bound in turn and
// drives the same schedule at it: connection A parks 3 frames on a
// worker that answers nothing, then connection B writes 10. Whatever
// the bound leaves no room for is answered StatusRetry by the router
// itself, exactly once; the rest are answered by the worker once it is
// released; and the remap pool balances after the drain.
func TestInFlightBoundsAnswerRetry(t *testing.T) {
	for _, tc := range []struct {
		name         string
		conn, worker int64
		forwarded    int // of B's 10 frames
	}{
		{"connection bound", 4, maxWorkerInFlight, 4}, // A's 3 do not count against B
		{"worker bound", maxConnInFlight, 4, 1},       // A's 3 leave room for one
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func(c, w int64) { maxConnInFlight, maxWorkerInFlight = c, w }(maxConnInFlight, maxWorkerInFlight)
			maxConnInFlight, maxWorkerInFlight = tc.conn, tc.worker

			h := startHeldWorker(t)
			defer h.ln.Close()
			rt, err := New(Config{Workers: []string{h.ln.Addr().String()}, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go rt.Serve(ln)

			a, b := dialRaw(t, ln.Addr().String()), dialRaw(t, ln.Addr().String())
			var frames []byte
			for i := 1; i <= 3; i++ {
				frames = append(frames, buildQueryFrame("m", uint64(i), []float64{1, 2})...)
			}
			if _, err := a.c.Write(frames); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				<-h.got // A's frames are in flight on the worker
			}
			frames = frames[:0]
			for i := 1; i <= 10; i++ {
				frames = append(frames, buildQueryFrame("m", uint64(100+i), []float64{1, 2})...)
			}
			if _, err := b.c.Write(frames); err != nil {
				t.Fatal(err)
			}

			// The router's own answers come first: the worker holds its.
			answered := map[uint64]byte{}
			read := func(p *rawPeer, n int, want byte) {
				t.Helper()
				for i := 0; i < n; i++ {
					id, status := p.next(t)
					if _, dup := answered[id]; dup {
						t.Fatalf("id %d answered twice", id)
					}
					if status != want {
						t.Fatalf("id %d answered status %d, want %d", id, status, want)
					}
					answered[id] = status
				}
			}
			read(b, 10-tc.forwarded, netserve.StatusRetry)
			close(h.release)
			read(b, tc.forwarded, netserve.StatusOK)
			read(a, 3, netserve.StatusOK)
			if len(answered) != 13 {
				t.Fatalf("%d distinct ids answered, want 13", len(answered))
			}
			if st := rt.Stats(); st.Retries != int64(10-tc.forwarded) {
				t.Errorf("router counted %d retries, want %d", st.Retries, 10-tc.forwarded)
			}

			a.c.Close()
			b.c.Close()
			rt.Close()
			if bal := rt.poolBalance(); bal != 0 {
				t.Errorf("remap pool leaked %d entries", bal)
			}
		})
	}
}

// failWrites is a connection every write to which fails.
type failWrites struct{ net.Conn }

func (failWrites) Write([]byte) (int, error) { return 0, errors.New("injected write failure") }

// TestSpliceWriteFailureAnsweredOnce sends one frame too large for the
// worker connection's write buffer over a connection whose writes fail,
// so the splice itself hits the error. The frame must be answered exactly
// once, with Retry; Stats.Retries must count that one answer; and no
// in-flight count may be left off zero — a count that outlives its
// connection would loosen the in-flight bounds for good.
func TestSpliceWriteFailureAnsweredOnce(t *testing.T) {
	h := startHeldWorker(t)
	defer h.ln.Close()
	rt, err := New(Config{Workers: []string{h.ln.Addr().String()}, Logf: t.Logf,
		Dialer: func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return failWrites{c}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rt.Serve(ln)
	p := dialRaw(t, ln.Addr().String())
	defer p.c.Close()

	// 4 500 values: a 36 KB frame spills past the 32 KB buffer at once.
	if _, err := p.c.Write(buildQueryFrame("m", 1, make([]float64, 4500))); err != nil {
		t.Fatal(err)
	}
	if id, status := p.next(t); id != 1 || status != netserve.StatusRetry {
		t.Fatalf("answered id %d status %d, want id 1 Retry", id, status)
	}
	p.c.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if buf, err := netserve.ReadRawFrame(p.br, p.buf, netserve.DefaultMaxFrame); err == nil {
		id, _ := netserve.RawResponseID(buf)
		t.Fatalf("a second answer, for id %d", id)
	}
	if st := rt.Stats(); st.Retries != 1 {
		t.Errorf("router counted %d retries for one Retry answer", st.Retries)
	}
	if bal := rt.poolBalance(); bal != 0 {
		t.Errorf("%d splices left in flight", bal)
	}
	rt.mu.Lock()
	for cc := range rt.conns {
		if n := cc.inflight.Load(); n != 0 {
			t.Errorf("frontend connection in flight %d, want 0", n)
		}
	}
	rt.mu.Unlock()
}
