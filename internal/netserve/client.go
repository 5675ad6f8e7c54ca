package netserve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Client-side status errors. QueryInto maps every non-OK response status to
// one of these (sentinels, so the retry/shed paths allocate nothing) or,
// for StatusError, to a *RemoteError carrying the server's message.
var (
	// ErrRetry is a StatusRetry answer: the tenant's admission window was
	// full; back off and retry.
	ErrRetry = errors.New("netserve: tenant overloaded, retry")
	// ErrExpired is a StatusExpired answer: the request's deadline passed
	// before the server admitted it.
	ErrExpired = errors.New("netserve: deadline expired before admission")
	// ErrUnknownTenant is a StatusUnknownTenant answer.
	ErrUnknownTenant = errors.New("netserve: unknown tenant")
	// ErrClientClosed is returned once the client (or its connection) is
	// closed; in-flight queries fail with it too.
	ErrClientClosed = errors.New("netserve: client closed")
	// ErrConnLost is the transport-failure sentinel: the connection died
	// under in-flight queries (read error, peer reset, protocol
	// violation). The concrete error wraps it with the cause; match with
	// errors.Is. Unlike the status errors above, the request's fate is
	// unknown — a ResilientClient retries it on another connection.
	ErrConnLost = errors.New("netserve: connection lost")
	// errShortBuffer reports caller result buffers smaller than the
	// response row.
	errShortBuffer = errors.New("netserve: result buffer smaller than response row")
)

// RemoteError is a StatusError answer: the server-side serving error,
// transported as text.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "netserve: server error: " + e.Msg }

// WireResult is one wire query's answer.
type WireResult struct {
	// Y aliases the caller's y buffer (QueryInto) or is caller-owned
	// (ResilientClient.Query), trimmed to the tenant's output
	// dimensionality.
	Y []float64
	// Std is the per-output predictive uncertainty; nil for oracle
	// answers and when the caller passed a nil std (the request then
	// carries FlagNoStd and the server sends none).
	Std []float64
	// Src reports which path answered (surrogate or simulation).
	Src core.Source
}

// ClientConfig tunes each connection of a ResilientClient
// (ResilientConfig.Client). The zero value selects the defaults.
type ClientConfig struct {
	// MaxFrame caps accepted response-frame bodies (default 64KiB).
	MaxFrame int
	// Dialer overrides the transport dial — fault-injection harnesses
	// wrap connections here. Nil uses net.DialTimeout("tcp", ...).
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
}

func (c *ClientConfig) fill() {
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
}

const (
	// dialTimeout bounds each (re)connect.
	dialTimeout = 5 * time.Second
	// deadlineGrace is how long past a request's deadline QueryInto keeps
	// waiting for the server's answer before giving up client-side with
	// ErrExpired. The server sheds expired requests with an explicit
	// status frame, so the grace normally never fires; it exists so a
	// stalled or blackholed connection cannot hold a deadline-bearing
	// caller forever. Requests without a deadline wait indefinitely.
	deadlineGrace = 250 * time.Millisecond
)

// connBuffer sizes each connection's buffered reader and writer, on both
// ends — large enough that a coalesced batch's requests arrive in one
// read syscall and its responses leave in one write. One reader fill is
// also the most a server gather can hold before it submits.
const connBuffer = 32 << 10

// pending is one in-flight request's pooled state: the encoded frame, the
// caller's result buffers and the completion signal.
type pending struct {
	buf  []byte        // encoded request frame
	done chan struct{} // cap 1, reused across leases
	y    []float64     // caller buffers; reader copies into them
	std  []float64
	res  WireResult
	err  error
	// Artifact-call results (see artCall): the generation answered, the
	// found/not-found bit, and the payload copied off the read buffer.
	artGen  uint64
	artOK   bool
	artData []byte
}

// transport is one multiplexed wire connection, the unit a ResilientClient
// pools: any number of goroutines may call it concurrently, requests are
// matched to responses by id, and the write path coalesces concurrent
// requests into shared buffered flushes (the client-side mirror of the
// server's batch-aware writer). A steady-state caller reusing its buffers
// through QueryInto performs zero heap allocations per query.
type transport struct {
	cfg  ClientConfig
	c    net.Conn
	pool sync.Pool // *pending
	id   atomic.Uint64

	wq   chan *pending
	quit chan struct{}

	mu     sync.Mutex
	pend   map[uint64]*pending
	broken error // set once the reader dies; all queries fail with it

	loops sync.WaitGroup
}

// dial connects one transport to a netserve server at addr.
func dial(addr string, cfg ClientConfig) (*transport, error) {
	cfg.fill()
	dialer := cfg.Dialer
	if dialer == nil {
		dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	c, err := dialer(addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return newTransport(c, cfg), nil
}

// newTransport wraps an established connection; cfg must already be filled.
func newTransport(c net.Conn, cfg ClientConfig) *transport {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	tr := &transport{
		cfg:  cfg,
		c:    c,
		wq:   make(chan *pending, 256),
		quit: make(chan struct{}),
		pend: make(map[uint64]*pending),
	}
	tr.loops.Add(2)
	go tr.writeLoop()
	go tr.readLoop()
	return tr
}

// Close tears the connection down; in-flight queries fail with
// ErrClientClosed (or the read error that got there first). Idempotent.
func (tr *transport) Close() error {
	tr.mu.Lock()
	already := tr.broken != nil
	if !already {
		tr.broken = ErrClientClosed
		close(tr.quit)
	}
	tr.mu.Unlock()
	if !already {
		tr.c.Close()
	}
	tr.loops.Wait()
	return nil
}

// QueryInto submits one row to the named tenant and blocks for its
// answer, which lands in y (and std, when the surrogate produced one);
// both must hold the tenant's output dimensionality. deadline is
// propagated into the server's admission control; the zero time means
// none. A nil std sets FlagNoStd on the request, so the server sends no
// uncertainty row at all. Safe for concurrent use; each concurrent caller
// must pass its own buffers.
func (tr *transport) QueryInto(tenant string, x, y, std []float64, deadline time.Time) (WireResult, error) {
	p, id := tr.lease()
	p.y, p.std = y, std
	var dl int64
	var bound time.Duration
	if !deadline.IsZero() {
		dl = deadline.UnixNano()
		bound = max(time.Until(deadline), 0) + deadlineGrace
	}
	var flags byte
	if std == nil {
		flags = FlagNoStd
	}
	var err error
	if p.buf, err = appendRequest(p.buf[:0], tenant, id, dl, flags, x); err != nil {
		tr.release(p)
		return WireResult{}, err
	}
	if !tr.roundTrip(p, id, bound) {
		return WireResult{}, ErrExpired
	}
	res, err := p.res, p.err
	tr.release(p)
	return res, err
}

// lease takes a cleared pending from the pool and draws its request id.
func (tr *transport) lease() (*pending, uint64) {
	p, _ := tr.pool.Get().(*pending)
	if p == nil {
		p = &pending{done: make(chan struct{}, 1)}
	}
	return p, tr.id.Add(1)
}

// release clears p's outcome and its references to caller memory, and
// pools it. buf is left alone: a writer overtaken by the reader's fail-all
// may still be reading it.
func (tr *transport) release(p *pending) {
	p.y, p.std, p.artData = nil, nil, nil
	p.res, p.err = WireResult{}, nil
	p.artGen, p.artOK = 0, false
	tr.pool.Put(p)
}

// roundTrip is the one request/response exchange every call rides:
// register p under id, hand its encoded frame to the writer, wait for the
// reader to complete it. It returns true once p holds the outcome (p.err
// or the result fields) and is the caller's to read and release. A
// positive bound caps the wait: when it lapses with the reader yet to
// claim p, the request is withdrawn and roundTrip returns false — the
// writer may still hold p.buf, so p is abandoned to the GC, never pooled.
func (tr *transport) roundTrip(p *pending, id uint64, bound time.Duration) bool {
	tr.mu.Lock()
	if tr.broken != nil {
		p.err = tr.broken
		tr.mu.Unlock()
		return true
	}
	tr.pend[id] = p
	tr.mu.Unlock()

	select {
	case tr.wq <- p:
	case <-tr.quit:
		// The writer is gone; withdraw unless the reader's fail-all
		// already claimed this entry (in which case its completion
		// signal is en route and must be consumed).
		if tr.withdraw(p, id) {
			p.err = ErrClientClosed
			return true
		}
	}
	if bound <= 0 {
		<-p.done
		return true
	}
	tm := time.NewTimer(bound)
	defer tm.Stop()
	select {
	case <-p.done:
	case <-tm.C:
		if tr.withdraw(p, id) {
			return false
		}
		<-p.done
	}
	return true
}

// withdraw removes p from the pending map if the reader has not already
// claimed it; true means the caller owns p again.
func (tr *transport) withdraw(p *pending, id uint64) bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if q, ok := tr.pend[id]; ok && q == p {
		delete(tr.pend, id)
		return true
	}
	return false
}

// writeLoop writes queued request frames, draining greedily and flushing
// once per drained burst — concurrent callers' requests share syscalls.
func (tr *transport) writeLoop() {
	defer tr.loops.Done()
	bw := bufio.NewWriterSize(tr.c, connBuffer)
	var werr error
	write := func(p *pending) {
		if werr == nil {
			_, werr = bw.Write(p.buf)
			if werr != nil {
				tr.c.Close() // wake the reader, which fails all pending
			}
		}
		// On error the pending entry stays in the map; the reader's
		// fail-all completes it.
	}
	for {
		select {
		case <-tr.quit:
			return
		case p := <-tr.wq:
			write(p)
			// Drain greedily, then donate a few scheduler yields before
			// flushing: concurrent callers that just received their
			// previous answers get to enqueue the next round, so one
			// write syscall carries the whole burst.
			spins := flushSpins
			for {
				select {
				case p2 := <-tr.wq:
					write(p2)
					continue
				default:
				}
				if spins > 0 {
					spins--
					runtime.Gosched()
					continue
				}
				break
			}
			if werr == nil {
				if werr = bw.Flush(); werr != nil {
					tr.c.Close()
				}
			}
		}
	}
}

// readLoop decodes response frames, completes their waiters, and on any
// read/protocol error fails every pending and future query.
func (tr *transport) readLoop() {
	defer tr.loops.Done()
	br := bufio.NewReaderSize(tr.c, connBuffer)
	buf := make([]byte, 0, 4096)
	var rerr error
	for {
		buf, rerr = ReadRawFrame(br, buf, tr.cfg.MaxFrame)
		if rerr != nil {
			break
		}
		frame := buf[lenPrefix:]
		var id uint64
		var resp response
		var ad artData
		isArt := len(frame) >= 2 && frame[1] == frameArtData
		if isArt {
			var err error
			if ad, err = parseArtData(frame); err != nil {
				rerr = err
				break
			}
			id = ad.id
		} else {
			var err error
			if resp, err = parseResponse(frame); err != nil {
				rerr = err
				break
			}
			id = resp.id
		}
		tr.mu.Lock()
		p := tr.pend[id]
		if p != nil {
			delete(tr.pend, id)
		}
		tr.mu.Unlock()
		if p == nil {
			// A response nobody is waiting for: the waiter withdrew
			// (client shutdown race) or the server is confused. Either
			// way the stream framing is still intact; drop it.
			continue
		}
		if isArt {
			completeArt(p, ad)
		} else {
			complete(p, resp)
		}
		p.done <- struct{}{}
	}
	// Fail everything pending and mark the client broken for future
	// queries. Close() may have beaten us to the broken flag.
	tr.mu.Lock()
	if tr.broken == nil {
		tr.broken = fmt.Errorf("%w: %v", ErrConnLost, rerr)
		close(tr.quit)
		tr.c.Close()
	}
	failErr := tr.broken
	var ps []*pending
	for id, p := range tr.pend {
		delete(tr.pend, id)
		ps = append(ps, p)
	}
	tr.mu.Unlock()
	for _, p := range ps {
		p.err = failErr
		p.done <- struct{}{}
	}
}

// complete fills p from a decoded response.
func complete(p *pending, resp response) {
	switch resp.status {
	case StatusOK:
		if resp.ny > len(p.y) || (resp.nstd > 0 && p.std != nil && resp.nstd > len(p.std)) {
			p.err = errShortBuffer
			return
		}
		p.res.Y = decodeFloats(p.y[:0], resp.y)
		if resp.nstd > 0 && p.std != nil {
			p.res.Std = decodeFloats(p.std[:0], resp.std)
		}
		p.res.Src = core.Source(resp.src)
	case StatusRetry:
		p.err = ErrRetry
	case StatusExpired:
		p.err = ErrExpired
	case StatusUnknownTenant:
		p.err = ErrUnknownTenant
	case StatusError:
		p.err = &RemoteError{Msg: string(resp.msg)}
	default:
		p.err = fmt.Errorf("netserve: unknown response status %d", resp.status)
	}
}
