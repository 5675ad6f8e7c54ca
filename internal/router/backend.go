package router

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netserve"
)

// worker is one backend process: a hot data-plane connection frames are
// spliced onto, and a resilient control-plane client pool for artifact
// stat/fetch/push. The hot connection is intentionally NOT resilient —
// when it dies, the router must fail its in-flight requests with Retry
// frames and rehash, not transparently redial: callers hold the
// never-silently-dropped contract against the router, and a placement
// may no longer belong here after the outage.
type worker struct {
	rt   *Router
	addr string
	idx  int

	alive atomic.Bool
	hot   atomic.Pointer[backendConn]

	ctlMu sync.Mutex
	ctl   *netserve.ResilientClient

	repairing atomic.Bool
	inflight  atomic.Int64 // in-flight across hot-connection generations
	closed    atomic.Bool
}

func (wk *worker) live() bool { return wk.alive.Load() }

// control returns the worker's control-plane client (one connection,
// artifact stat/fetch/push), dialing it lazily. Artifact frames need the
// raised MaxFrame.
func (wk *worker) control() (*netserve.ResilientClient, error) {
	wk.ctlMu.Lock()
	defer wk.ctlMu.Unlock()
	if wk.ctl != nil {
		return wk.ctl, nil
	}
	cfg := netserve.ResilientConfig{
		Conns:  1,
		Client: netserve.ClientConfig{MaxFrame: netserve.DefaultMaxArtifactFrame, Dialer: wk.rt.cfg.Dialer},
	}
	rc, err := netserve.DialResilient(wk.addr, cfg)
	if err != nil {
		return nil, err
	}
	wk.ctl = rc
	return rc, nil
}

// connect dials the hot connection and marks the worker live. Called at
// start and from the repair loop.
func (wk *worker) connect() error {
	rt := wk.rt
	dial := rt.cfg.Dialer
	var (
		c   net.Conn
		err error
	)
	if dial != nil {
		c, err = dial(wk.addr, dialTimeout)
	} else {
		c, err = net.DialTimeout("tcp", wk.addr, dialTimeout)
	}
	if err != nil {
		return err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	bc := newBackendConn(wk, c)
	wk.hot.Store(bc)
	wk.alive.Store(true)
	rt.bg.Add(2)
	go bc.readLoop()
	go bc.stallWatch()
	return nil
}

// spawnRepair starts (at most one) background redial loop for the
// worker. On success the worker rejoins the ring.
func (wk *worker) spawnRepair() {
	if wk.closed.Load() || !wk.repairing.CompareAndSwap(false, true) {
		return
	}
	rt := wk.rt
	rt.bg.Add(1)
	go func() {
		defer rt.bg.Done()
		defer wk.repairing.Store(false)
		backoff := reconnectBackoff
		for {
			select {
			case <-rt.quit:
				return
			case <-time.After(backoff):
			}
			if wk.closed.Load() {
				return
			}
			if err := wk.connect(); err == nil {
				rt.logf("router: worker %s reconnected", wk.addr)
				rt.pmu.Lock()
				rt.rebalanceLocked()
				rt.pmu.Unlock()
				return
			}
			backoff = min(2*backoff, reconnectBackoffMax)
		}
	}()
}

// close shuts the worker down for good (router Close).
func (wk *worker) close() {
	wk.closed.Store(true)
	wk.alive.Store(false)
	if bc := wk.hot.Load(); bc != nil {
		bc.teardown(nil)
	}
	wk.ctlMu.Lock()
	if wk.ctl != nil {
		wk.ctl.Close()
		wk.ctl = nil
	}
	wk.ctlMu.Unlock()
}

// rentry maps one spliced frame's rewritten id back to its origin: the
// caller's original id and connection. Entries are pooled per backend
// connection on a freelist — the hot path never allocates one.
type rentry struct {
	orig uint64
	cc   *clientConn
}

// backendConn is one generation of a worker's hot connection. Its write
// side is shared by the frontend readers, which lock it for one splice or
// one flush at a time; its read side is a single demux goroutine patching
// ids back and fanning responses out to caller connections.
type backendConn struct {
	wk *worker
	c  net.Conn

	wmu      sync.Mutex
	bw       *bufio.Writer
	werr     error
	nextID   uint64
	pendingW bool

	rmu   sync.Mutex
	remap map[uint64]*rentry
	free  []*rentry
	dead  bool

	tearing  atomic.Bool
	lastRead atomic.Int64 // unix nanos of the last response byte
}

func newBackendConn(wk *worker, c net.Conn) *backendConn {
	bc := &backendConn{
		wk:    wk,
		c:     c,
		bw:    bufio.NewWriterSize(c, connBuffer),
		remap: make(map[uint64]*rentry, 256),
	}
	bc.lastRead.Store(time.Now().UnixNano())
	return bc
}

// splice patches one validated query frame's id and writes it onto the
// backend connection's buffer. False means the connection is dead (sticky
// write error or torn down) — the caller answers Retry itself.
func (bc *backendConn) splice(cc *clientConn, origID uint64, frame []byte) bool {
	bc.wmu.Lock()
	defer bc.wmu.Unlock()
	if bc.werr != nil {
		return false
	}
	bc.rmu.Lock()
	if bc.dead {
		bc.rmu.Unlock()
		return false
	}
	var e *rentry
	if n := len(bc.free); n > 0 {
		e = bc.free[n-1]
		bc.free = bc.free[:n-1]
	} else {
		e = &rentry{}
	}
	e.orig, e.cc = origID, cc
	bc.nextID++
	id := bc.nextID
	bc.remap[id] = e
	bc.rmu.Unlock()
	bc.wk.rt.remapLeases.Add(1)

	netserve.SetRawQueryID(frame, id)
	// Arm the write deadline only when this frame will spill the buffer
	// to the socket — the common buffered append costs no syscall.
	if bc.bw.Available() < len(frame) {
		bc.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	}
	if _, err := bc.bw.Write(frame); err != nil {
		bc.werr = err
		// The remap entry was already published; teardown fails it with a
		// Retry like the rest of the in-flight set.
		go bc.teardown(err)
		return false
	}
	bc.pendingW = true
	cc.inflight.Add(1)
	bc.wk.inflight.Add(1)
	return true
}

// flush pushes what frontend readers spliced since the last flush to the
// worker (nothing, when another reader's flush already carried it).
func (bc *backendConn) flush() {
	bc.wmu.Lock()
	defer bc.wmu.Unlock()
	if bc.werr != nil || !bc.pendingW {
		return
	}
	bc.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := bc.bw.Flush(); err != nil {
		bc.werr = err
		go bc.teardown(err)
		return
	}
	bc.pendingW = false
	bc.wk.rt.bursts.Add(1)
}

// takeRemap claims the remap entry for a worker response id. The entry
// is recycled onto the freelist; its fields are returned by value.
func (bc *backendConn) takeRemap(id uint64) (orig uint64, cc *clientConn, ok bool) {
	bc.rmu.Lock()
	e := bc.remap[id]
	if e == nil {
		bc.rmu.Unlock()
		return 0, nil, false
	}
	delete(bc.remap, id)
	orig, cc = e.orig, e.cc
	e.cc = nil
	bc.free = append(bc.free, e)
	bc.rmu.Unlock()
	bc.wk.rt.remapReleases.Add(1)
	return orig, cc, true
}

// readLoop demuxes worker responses: restore the caller's id in place,
// splice the frame to the caller's connection, and batch-flush the set
// of callers touched since the last blocking read.
func (bc *backendConn) readLoop() {
	rt := bc.wk.rt
	defer rt.bg.Done()
	br := bufio.NewReaderSize(bc.c, connBuffer)
	buf := make([]byte, 0, 4096)
	var touched []*clientConn
	for {
		if !netserve.RawFrameBuffered(br, netserve.DefaultMaxFrame) {
			// About to block: deliver the batch.
			touched = flushAll(touched)
		}
		var err error
		buf, err = netserve.ReadRawFrame(br, buf, netserve.DefaultMaxFrame)
		if err != nil {
			flushAll(touched)
			bc.teardown(err)
			return
		}
		bc.lastRead.Store(time.Now().UnixNano())
		id, ok := netserve.RawResponseID(buf)
		if !ok {
			bc.teardown(netserve.ErrRawFrame)
			return
		}
		orig, cc, ok := bc.takeRemap(id)
		if !ok {
			// A response for an id we no longer track — the remap was
			// drained by a teardown race. Nothing is owed; count it.
			rt.unexpectedFrames.Add(1)
			continue
		}
		netserve.SetRawResponseID(buf, orig)
		if cc.writeRaw(buf) {
			touched = touch(touched, cc)
		} else {
			rt.drops.Add(1)
		}
		cc.inflight.Add(-1)
		bc.wk.inflight.Add(-1)
	}
}

// stallWatch condemns the connection when it holds in-flight requests
// but has delivered no bytes for stallTimeout — the router-side analog
// of the resilient client's expire-streak blackhole detection.
func (bc *backendConn) stallWatch() {
	rt := bc.wk.rt
	defer rt.bg.Done()
	tick := time.NewTicker(stallTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-rt.quit:
			return
		case <-tick.C:
		}
		if bc.tearing.Load() {
			return
		}
		bc.rmu.Lock()
		inflight := len(bc.remap)
		bc.rmu.Unlock()
		if inflight == 0 {
			continue
		}
		idle := time.Duration(time.Now().UnixNano() - bc.lastRead.Load())
		if idle >= stallTimeout {
			rt.logf("router: worker %s stalled %v with %d in flight; condemning", bc.wk.addr, idle, inflight)
			bc.teardown(errStalled)
			return
		}
	}
}

var errStalled = &net.OpError{Op: "read", Err: errStallTimeout{}}

type errStallTimeout struct{}

func (errStallTimeout) Error() string { return "router: backend stall timeout" }
func (errStallTimeout) Timeout() bool { return true }

// teardown retires the connection: mark the worker down, fail every
// in-flight request with an explicit Retry frame to its caller (never a
// silent drop), rehash the placements, and start the repair loop.
func (bc *backendConn) teardown(cause error) {
	if !bc.tearing.CompareAndSwap(false, true) {
		return
	}
	wk := bc.wk
	rt := wk.rt
	wk.hot.CompareAndSwap(bc, nil)
	wk.alive.Store(false)
	bc.c.Close()
	if cause != nil {
		rt.logf("router: worker %s connection lost: %v", wk.addr, cause)
	}

	bc.rmu.Lock()
	bc.dead = true
	entries := make([]*rentry, 0, len(bc.remap))
	for id, e := range bc.remap {
		entries = append(entries, e)
		delete(bc.remap, id)
	}
	bc.rmu.Unlock()
	for _, e := range entries {
		cc := e.cc
		e.cc = nil
		rt.remapReleases.Add(1)
		cc.writeStatus(e.orig, netserve.StatusRetry)
		cc.flush()
		rt.retries.Add(1)
		cc.inflight.Add(-1)
		wk.inflight.Add(-1)
	}

	if !wk.closed.Load() {
		rt.pmu.Lock()
		rt.rebalanceLocked()
		rt.pmu.Unlock()
		wk.spawnRepair()
	}
}
