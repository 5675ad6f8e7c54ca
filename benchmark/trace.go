package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// The traced run measures every layer from outside: the benchmark wraps
// only what the stack lets a caller inject — the serve.Backend it
// registers, the core.Oracle it passes in, the net.Listeners it hands to
// Serve and the Dialers it configures — and reads each layer's public
// Stats(). Spans are kept in memory and written as JSON lines when the
// run ends. Exact causal ids need stamps inside the program (ROADMAP
// items 1/5, a later issue); until then a child span's parent is the
// sampled root span whose interval contains it.

// rootSpan is one sampled request (1 in 64) around the client call.
type rootSpan struct {
	start, end time.Time
	tenant     int
}

// childSpan is one call into a layer made on behalf of requests.
type childSpan struct {
	start, end int64 // ns since the tracer's epoch
	n          int32 // rows in the call
}

// maxSpansPerBuf bounds memory: spans beyond it are counted, not kept
// (busy time and call counts stay exact).
const maxSpansPerBuf = 200_000

// spanBuf collects the spans of one decorated entry point.
type spanBuf struct {
	name   string
	tenant int
	epoch  time.Time
	mu     sync.Mutex
	spans  []childSpan
	calls  int64
	rows   int64
	busy   time.Duration
}

func (b *spanBuf) add(t0, t1 time.Time, n int) {
	b.mu.Lock()
	b.calls++
	b.rows += int64(n)
	b.busy += t1.Sub(t0)
	if len(b.spans) < maxSpansPerBuf {
		b.spans = append(b.spans, childSpan{int64(t0.Sub(b.epoch)), int64(t1.Sub(b.epoch)), int32(n)})
	}
	b.mu.Unlock()
}

// tracer owns the span buffers and wire counters of one traced run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) buf(name string, tenant int) *spanBuf {
	b := &spanBuf{name: name, tenant: tenant, epoch: t.epoch}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// sum totals calls, rows and busy time over the buffers called name.
func (t *tracer) sum(name string) (calls, rows int64, busy time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.bufs {
		if b.name == name {
			b.mu.Lock()
			calls, rows, busy = calls+b.calls, rows+b.rows, busy+b.busy
			b.mu.Unlock()
		}
	}
	return
}

// reset drops what the buffers called name have recorded so far: set-up
// and warm-up before a measurement, the rung below before a ladder rung.
func (t *tracer) reset(names ...string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.bufs {
		for _, name := range names {
			if b.name == name {
				b.mu.Lock()
				b.spans, b.calls, b.rows, b.busy = b.spans[:0], 0, 0, 0
				b.mu.Unlock()
			}
		}
	}
}

// timedBackend is the timing decorator around a tenant's backend: one
// child span per QueryBatchInto with its batch size. It embeds the
// interface on purpose — the fleet then sees exactly what a foreign
// backend would give it.
type timedBackend struct {
	serve.Backend
	buf *spanBuf
}

func (b *timedBackend) QueryBatchInto(xs *tensor.Matrix, res []core.BatchResult) error {
	t0 := time.Now()
	err := b.Backend.QueryBatchInto(xs, res)
	b.buf.add(t0, time.Now(), xs.Rows)
	return err
}

// timedOracle times and counts every oracle run.
type timedOracle struct {
	core.Oracle
	buf *spanBuf
}

func (o *timedOracle) Run(x []float64) ([]float64, error) {
	t0 := time.Now()
	y, err := o.Oracle.Run(x)
	o.buf.add(t0, time.Now(), 1)
	return y, err
}

// hop counts the Write calls and bytes the stack puts on one side of one
// network hop.
type hop struct {
	writes, bytes atomic.Int64
}

type countedConn struct {
	net.Conn
	h *hop
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.h.writes.Add(1)
	c.h.bytes.Add(int64(n))
	return n, err
}

// CloseRead keeps the server's half-close drain path working through the
// wrapper.
func (c *countedConn) CloseRead() error {
	if rc, ok := c.Conn.(interface{ CloseRead() error }); ok {
		return rc.CloseRead()
	}
	return nil
}

type countedListener struct {
	net.Listener
	h *hop
}

func (l *countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{c, l.h}, nil
}

// dialCounted dials addr the way the stack's default Dialer does and, on
// the traced run (h != nil), counts what is written to the connection.
func dialCounted(addr string, timeout time.Duration, h *hop) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil || h == nil {
		return c, err
	}
	return &countedConn{c, h}, nil
}

// gatherWaits returns, for each sampled request, its call duration minus
// the backend span it rode in — the time the row spent being gathered,
// queued and fanned back rather than computed. The ride is the tenant's
// last backend span contained in the request's interval.
func gatherWaits(roots []rootSpan, bufs []*spanBuf, epoch time.Time) *hist {
	byTenant := map[int][]childSpan{}
	for _, b := range bufs {
		if b.name == spanBackend {
			byTenant[b.tenant] = append(byTenant[b.tenant], b.spans...)
		}
	}
	for _, s := range byTenant {
		sort.Slice(s, func(i, j int) bool { return s[i].end < s[j].end })
	}
	h := &hist{}
	for _, r := range roots {
		spans := byTenant[r.tenant]
		t0, t1 := int64(r.start.Sub(epoch)), int64(r.end.Sub(epoch))
		// Last span ending at or before the reply.
		i := sort.Search(len(spans), func(i int) bool { return spans[i].end > t1 }) - 1
		if i < 0 || spans[i].start < t0 {
			continue
		}
		h.add((t1 - t0) - (spans[i].end - spans[i].start))
	}
	return h
}

const (
	spanBackend = "backend.QueryBatchInto"
	spanOracle  = "oracle.Run"
	spanPublish = "registry.Publish"
)

// writeSpans writes the run's spans as JSON lines: one meta line, the
// root spans, then the child spans with the id of the root that contains
// them (0 when none was sampled around them).
func (t *tracer) writeSpans(path, run string, roots []rootSpan) (n int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	sort.Slice(roots, func(i, j int) bool { return roots[i].start.Before(roots[j].start) })
	fmt.Fprintf(w, "{\"meta\":{\"run\":%q,\"fields\":\"name,id,start_ns,end_ns,parent,run,rows\",\"root_sampling\":\"1/64\",\"parent\":\"time containment\"}}\n", run)
	rs := make([][2]int64, len(roots))
	for i, r := range roots {
		rs[i] = [2]int64{int64(r.start.Sub(t.epoch)), int64(r.end.Sub(t.epoch))}
		fmt.Fprintf(w, "{\"name\":\"client.call\",\"id\":%d,\"start_ns\":%d,\"end_ns\":%d,\"parent\":0,\"run\":%q,\"tenant\":%d}\n",
			i+1, rs[i][0], rs[i][1], run, r.tenant)
	}
	n = len(roots)
	parent := func(c childSpan) int {
		// Roots are sorted by start; look back a bounded distance from the
		// last root that started before the child.
		i := sort.Search(len(rs), func(i int) bool { return rs[i][0] > c.start }) - 1
		for k := 0; i >= 0 && k < 128; i, k = i-1, k+1 {
			if rs[i][1] >= c.end {
				return i + 1
			}
		}
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.bufs {
		for _, c := range b.spans {
			fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"run\":%q,\"rows\":%d}\n",
				b.name, c.start, c.end, parent(c), run, c.n)
			n++
		}
	}
	if err := w.Flush(); err != nil {
		return n, err
	}
	return n, f.Close()
}
