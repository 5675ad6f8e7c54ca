package netserve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
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
	// Y aliases the caller's y buffer (QueryInto), trimmed to the
	// tenant's output dimensionality.
	Y []float64
	// Std is the per-output predictive uncertainty; nil for oracle
	// answers and when the caller passed a nil std (the request then
	// carries FlagNoStd and the server sends none).
	Std []float64
	// Src reports which path answered (surrogate or simulation).
	Src core.Source
}

// ClientConfig tunes a Conn (Dial), and each connection of a
// ResilientClient (ResilientConfig.Client). The zero value selects the
// defaults.
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

// stallTimeout condemns a connection that has requests in flight but has
// read no frame for this long: a blackholed peer — open, silent, never a
// transport error — would otherwise hold every waiter on it, spliced,
// query and artifact call alike, forever. When only artifact calls wait
// (a cold placement push pretrains inside its call, for as long as it
// takes), the watch sends a stat probe halfway through: a live peer's
// answer is a frame read, so only a dead one is condemned. A variable
// only so the tests can shorten it.
var stallTimeout = 10 * time.Second

// stallProbeKey is the key the stall watch's probe stats; no tenant needs
// to hold it, since any answer proves the peer alive.
const stallProbeKey = "\x00stall-probe"

// pending is one in-flight request's pooled state: the encoded frame, the
// caller's result buffers and the completion signal.
type pending struct {
	buf  []byte        // encoded request frame (not a splice's)
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
	// A splice's caller: the id it sent and where its answer goes. A nil
	// sink marks a query or artifact call.
	orig uint64
	sink Sink
}

// Sink receives the answers to spliced requests (Conn.Splice): a frame
// forwarder's caller connection. Answer is handed each one's raw response
// frame with the caller's original id restored — or, when the connection
// dies first, a Retry status frame under that id, with lost set — exactly
// once per splice. The frame is only valid during the call. Flush follows
// once per sink a burst of answers touched, before the reader blocks.
type Sink interface {
	Answer(frame []byte, lost bool)
	Flush()
}

// Conn is one multiplexed wire connection, the unit a ResilientClient
// pools: any number of goroutines may call it concurrently, and requests
// are matched to responses by id. It carries queries (QueryInto, whose
// concurrent callers share buffered flushes — the client-side mirror of
// the server's batch-aware writer), artifact calls and spliced frames
// (Splice), with zero steady-state heap allocations per query or splice.
// It never redials: when it dies — read or write error, protocol
// violation, Close, or a stall (stallTimeout) — every query and artifact
// call on it fails with ErrConnLost (ErrClientClosed after Close), every
// splice is answered Retry, and Wait returns.
type Conn struct {
	cfg  ClientConfig
	c    net.Conn
	pool sync.Pool // *pending
	id   atomic.Uint64

	wq   chan *pending
	quit chan struct{} // closed once the connection is condemned
	dead chan struct{} // closed once every request on it is answered

	// wmu guards the write side, shared by the write loop and splicers.
	wmu       sync.Mutex
	bw        *bufio.Writer
	werr      error // sticky; set too once the reader has failed everything
	unflushed bool  // spliced bytes await a Flush

	mu     sync.Mutex
	pend   map[uint64]*pending
	broken error // why the connection died; all requests fail with it

	spliced atomic.Int64  // splices awaiting their answers
	arts    atomic.Int64  // artifact calls awaiting theirs, for the probe
	frames  atomic.Uint64 // frames read, for the stall watch

	loops sync.WaitGroup
}

// Dial connects to a netserve server at addr.
func Dial(addr string, cfg ClientConfig) (*Conn, error) {
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
	return newConn(c, cfg), nil
}

// newConn wraps an established connection; cfg must already be filled.
func newConn(c net.Conn, cfg ClientConfig) *Conn {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cn := &Conn{
		cfg:  cfg,
		c:    c,
		bw:   bufio.NewWriterSize(c, connBuffer),
		wq:   make(chan *pending, 256),
		quit: make(chan struct{}),
		dead: make(chan struct{}),
		pend: make(map[uint64]*pending),
	}
	cn.loops.Add(3)
	go cn.writeLoop()
	go cn.readLoop()
	go cn.stallWatch()
	return cn
}

// condemn marks the connection dead with cause (unless it already is)
// and closes the socket, which wakes the reader into failing everything.
func (cn *Conn) condemn(cause error) {
	cn.mu.Lock()
	if cn.broken == nil {
		cn.broken = cause
		close(cn.quit)
	}
	cn.mu.Unlock()
	cn.c.Close()
}

// Close tears the connection down; in-flight requests fail with
// ErrClientClosed (or the error that got there first). Idempotent.
func (cn *Conn) Close() error {
	cn.condemn(ErrClientClosed)
	cn.loops.Wait()
	return nil
}

// Wait blocks until the connection has died and every request on it has
// been answered, and returns why it died.
func (cn *Conn) Wait() error {
	<-cn.dead
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.broken
}

// InFlight reports the spliced requests still awaiting their answers.
func (cn *Conn) InFlight() int64 { return cn.spliced.Load() }

// QueryInto submits one row to the named tenant and blocks for its
// answer, which lands in y (and std, when the surrogate produced one);
// both must hold the tenant's output dimensionality. deadline is
// propagated into the server's admission control; the zero time means
// none. A nil std sets FlagNoStd on the request, so the server sends no
// uncertainty row at all. Safe for concurrent use; each concurrent caller
// must pass its own buffers.
func (cn *Conn) QueryInto(tenant string, x, y, std []float64, deadline time.Time) (WireResult, error) {
	p, id := cn.lease()
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
		cn.release(p)
		return WireResult{}, err
	}
	if !cn.roundTrip(p, id, bound) {
		return WireResult{}, ErrExpired
	}
	res, err := p.res, p.err
	cn.release(p)
	return res, err
}

// Splice forwards one validated, length-prefixed query frame: it is
// appended to the write buffer under a connection-unique id, to go out at
// the next Flush, and its answer goes to sink under the frame's own id.
// True means the connection answers it exactly once from here — with
// Retry if the write fails; false means it took nothing (it is dead), and
// the caller answers for itself. The id is patched in place for the write
// and restored before Splice returns.
func (cn *Conn) Splice(sink Sink, frame []byte) bool {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	p, id := cn.lease()
	orig, _ := RawResponseID(frame) // requests keep their id at the same offset
	p.orig, p.sink = orig, sink
	if !cn.register(p, id) {
		cn.release(p)
		return false
	}
	cn.spliced.Add(1)
	SetRawQueryID(frame, id)
	cn.writeLocked(frame) // a failed write leaves p to the reader's fail-all
	SetRawQueryID(frame, orig)
	cn.unflushed = true
	return true
}

// Flush writes the frames spliced since the last flush to the socket. It
// reports whether it wrote any (none when another flush carried them).
func (cn *Conn) Flush() bool {
	cn.wmu.Lock()
	defer cn.wmu.Unlock()
	if !cn.unflushed {
		return false
	}
	cn.flushLocked()
	return cn.werr == nil
}

// writeLocked appends one request frame to the write buffer; caller
// holds wmu. On error the pending stays in the map for the reader's
// fail-all.
func (cn *Conn) writeLocked(frame []byte) {
	if cn.werr != nil {
		return
	}
	if _, cn.werr = cn.bw.Write(frame); cn.werr != nil {
		cn.condemn(fmt.Errorf("%w: %v", ErrConnLost, cn.werr))
	}
}

// flushLocked pushes the write buffer to the socket; caller holds wmu.
func (cn *Conn) flushLocked() {
	cn.unflushed = false
	if cn.werr != nil {
		return
	}
	if cn.werr = cn.bw.Flush(); cn.werr != nil {
		cn.condemn(fmt.Errorf("%w: %v", ErrConnLost, cn.werr))
	}
}

// lease takes a cleared pending from the pool and draws its request id.
func (cn *Conn) lease() (*pending, uint64) {
	p, _ := cn.pool.Get().(*pending)
	if p == nil {
		p = &pending{done: make(chan struct{}, 1)}
	}
	return p, cn.id.Add(1)
}

// release clears p's outcome and its references to caller memory, and
// pools it.
func (cn *Conn) release(p *pending) {
	p.y, p.std, p.artData = nil, nil, nil
	p.res, p.err = WireResult{}, nil
	p.artGen, p.artOK = 0, false
	p.sink = nil
	cn.pool.Put(p)
}

// roundTrip is the one request/response exchange every call rides:
// register p under id, hand its encoded frame to the writer, wait for the
// reader to complete it. It returns true once p holds the outcome (p.err
// or the result fields) and is the caller's to read and release. A
// positive bound caps the wait: when it lapses with the reader yet to
// claim p, the request is withdrawn and roundTrip returns false — the
// writer may still hold p.buf, so p is abandoned to the GC, never pooled.
func (cn *Conn) roundTrip(p *pending, id uint64, bound time.Duration) bool {
	if !cn.register(p, id) {
		return true
	}
	select {
	case cn.wq <- p:
	case <-cn.quit:
		// The writer is gone; withdraw unless the reader's fail-all
		// already claimed this entry (in which case its completion
		// signal is en route and must be consumed).
		if cn.withdraw(p, id) {
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
		if cn.withdraw(p, id) {
			return false
		}
		<-p.done
	}
	return true
}

// register enters p in the pending map under id. False means the
// connection is dead, and p.err says why.
func (cn *Conn) register(p *pending, id uint64) bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.broken != nil {
		p.err = cn.broken
		return false
	}
	cn.pend[id] = p
	return true
}

// withdraw removes p from the pending map if the reader has not already
// claimed it; true means the caller owns p again.
func (cn *Conn) withdraw(p *pending, id uint64) bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if q, ok := cn.pend[id]; ok && q == p {
		delete(cn.pend, id)
		return true
	}
	return false
}

// writeLoop writes queued request frames, draining greedily and flushing
// once per drained burst — concurrent callers' requests share syscalls.
func (cn *Conn) writeLoop() {
	defer cn.loops.Done()
	for {
		select {
		case <-cn.quit:
			return
		case p := <-cn.wq:
			cn.wmu.Lock()
			cn.writeLocked(p.buf)
			// Drain greedily, then donate a few scheduler yields (with the
			// write side unlocked, so splicers are not held up) before
			// flushing: concurrent callers that just received their
			// previous answers get to enqueue the next round, so one write
			// syscall carries the whole burst.
			for spins := flushSpins; ; {
				select {
				case p2 := <-cn.wq:
					cn.writeLocked(p2.buf)
					continue
				default:
				}
				if spins == 0 {
					break
				}
				spins--
				cn.wmu.Unlock()
				runtime.Gosched()
				cn.wmu.Lock()
			}
			cn.flushLocked()
			cn.wmu.Unlock()
		}
	}
}

// readLoop matches response frames to their requests. A splice's frame
// goes to its sink with the caller's id restored, and every sink a burst
// touched is flushed once before the reader blocks — the tier's one
// gather rule; a query's or artifact call's frame is decoded into its
// waiter. On any read or protocol error it fails everything.
func (cn *Conn) readLoop() {
	defer cn.loops.Done()
	br := bufio.NewReaderSize(cn.c, connBuffer)
	buf := make([]byte, 0, 4096)
	var touched []Sink
	var rerr error
	for {
		if len(touched) > 0 && !RawFrameBuffered(br, cn.cfg.MaxFrame) {
			touched = flushSinks(touched)
		}
		if buf, rerr = ReadRawFrame(br, buf, cn.cfg.MaxFrame); rerr != nil {
			break
		}
		cn.frames.Add(1)
		frame := buf[lenPrefix:]
		var id uint64
		var resp response
		var ad artData
		isArt := len(frame) >= 2 && frame[1] == frameArtData
		if isArt {
			ad, rerr = parseArtData(frame)
			id = ad.id
		} else {
			resp, rerr = parseResponse(frame)
			id = resp.id
		}
		if rerr != nil {
			break
		}
		cn.mu.Lock()
		p := cn.pend[id]
		delete(cn.pend, id)
		cn.mu.Unlock()
		switch {
		case p == nil:
			// Nobody is waiting: the waiter withdrew, or the server is
			// confused. The stream framing is still intact; drop it.
		case p.sink != nil:
			SetRawResponseID(buf, p.orig)
			touched = cn.answer(touched, p, buf, false)
		case isArt:
			completeArt(p, ad)
			p.done <- struct{}{}
		default:
			complete(p, resp)
			p.done <- struct{}{}
		}
	}
	cn.condemn(fmt.Errorf("%w: %v", ErrConnLost, rerr))
	// Taking wmu waits out a splice or write in progress; with werr set
	// none starts again, so no pending's buffer is read past this point.
	cn.wmu.Lock()
	cn.mu.Lock()
	failErr := cn.broken
	if cn.werr == nil {
		cn.werr = failErr
	}
	ps := cn.pend
	cn.pend = nil // broken is set: nothing registers again
	cn.mu.Unlock()
	cn.wmu.Unlock()
	var sbuf []byte
	for _, p := range ps {
		if p.sink != nil {
			sbuf = AppendStatusFrame(sbuf[:0], p.orig, StatusRetry)
			touched = cn.answer(touched, p, sbuf, true)
			continue
		}
		p.err = failErr
		p.done <- struct{}{}
	}
	flushSinks(touched)
	close(cn.dead)
}

// stallWatch condemns the connection once requests have been in flight
// for stallTimeout without one frame read, probing first when they are
// all artifact calls. It samples the frames-read counter each quarter
// period, so the read path pays no clock read.
func (cn *Conn) stallWatch() {
	defer cn.loops.Done()
	limit := stallTimeout
	tick := time.NewTicker(limit / 4)
	defer tick.Stop()
	var last uint64
	for quiet := 0; ; {
		select {
		case <-cn.quit:
			return
		case <-tick.C:
		}
		cn.mu.Lock()
		n := len(cn.pend)
		cn.mu.Unlock()
		if read := cn.frames.Load(); read != last || n == 0 {
			last, quiet = read, 0
			continue
		}
		switch quiet++; {
		case quiet == 2 && int64(n) == cn.arts.Load():
			go cn.StatArtifact(stallProbeKey)
		case quiet == 4:
			cn.condemn(fmt.Errorf("%w: stalled, no frame read for %v with %d requests in flight", ErrConnLost, limit, n))
			return
		}
	}
}

// answer hands a splice its answer frame and recycles it, adding its
// sink to the set the reader owes a flush.
func (cn *Conn) answer(touched []Sink, p *pending, frame []byte, lost bool) []Sink {
	p.sink.Answer(frame, lost)
	if !slices.Contains(touched, p.sink) {
		touched = append(touched, p.sink)
	}
	cn.spliced.Add(-1)
	cn.release(p)
	return touched
}

// flushSinks flushes every sink of the set and returns it emptied, its
// entries cleared so that a closed caller does not stay pinned.
func flushSinks(set []Sink) []Sink {
	for i, s := range set {
		s.Flush()
		set[i] = nil
	}
	return set[:0]
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
