// Package router is the multi-process dispatch tier: a wire-protocol
// frontend whose backends are N worker processes, each a netserve
// Server over its own fleet. Tenants are placed on workers by
// consistent hashing over the live worker ring, and the forwarder
// never decodes rows — it validates the frame header, patches the
// request-id word in the already-framed bytes, and splices the payload
// through to the owning worker's connection. Every reader on this tier
// gathers by one rule: while complete frames are already buffered,
// append each to its destination's pending write; when the reader is
// about to block, flush every destination touched, once. Frames of one
// read therefore reach each worker as one chunk however their tenants
// interleave, and netserve's readLoop regroups them per tenant by the
// same rule. Each worker is one netserve connection, which carries the
// spliced frames and the artifact calls alike; responses demux back
// through its pending table, and its reader hands each one, its caller's
// id restored, to the caller's connection by the same gather rule — so
// the routed hot path keeps the serving plane's zero-allocation steady
// state.
//
// Failure semantics uphold the stack's never-silently-dropped
// contract: a worker death fails that worker's in-flight requests with
// explicit Retry frames, removes it from the ring, and moves its
// placements to the surviving owners — warm-started from the router's
// artifact mirror over the wire (push of the tenant's latest registry
// generations), so the new owner serves the tenant's learned state
// with zero oracle retraining. While a placement moves, the router
// itself answers Retry. A worker that comes back rejoins the ring and
// its tenants rehash home the same way.
package router

import (
	"bufio"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netserve"
	"repro/internal/registry"
)

// Config tunes a Router. Workers is required.
type Config struct {
	// Workers lists the backend worker addresses. Placement hashes over
	// the live subset; workers that are down at start repair in the
	// background and join the ring when they come up.
	Workers []string
	// Registry, when set, is the router's local artifact mirror: a
	// follower registry the mirror loop replays worker generations into,
	// and the source of the warm-start pushes that move placements
	// without retraining. Nil disables mirroring; moves place cold.
	Registry *registry.Registry
	// Tenants are placed (and pushed to their owners) at start, and
	// pushed again whenever a rehash moves them. Tenants not listed are
	// routed on demand to their ring owner, before and after a rehash,
	// without a push.
	Tenants []string
	// Dialer overrides the backend transport dial — fault-injection
	// harnesses wrap connections here. Nil uses net.DialTimeout("tcp").
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
	// Logf observes placement and failover events; nil discards them.
	Logf func(format string, args ...any)
}

const (
	// ringReplicas is the virtual-node count per worker on the hash ring.
	ringReplicas = 64
	// connBuffer sizes each connection's buffered reader and writer. One
	// reader fill is also the most a gather can hold before it flushes.
	connBuffer = 32 << 10
	// mirrorInterval is the artifact-mirror poll cadence.
	mirrorInterval = 500 * time.Millisecond
	// writeTimeout bounds each frontend write and flush. A stall past it
	// condemns the connection.
	writeTimeout = 10 * time.Second
	// reconnectBackoff and reconnectBackoffMax shape the ladders a worker
	// redial and a placement move retry on.
	reconnectBackoff    = 25 * time.Millisecond
	reconnectBackoffMax = time.Second
)

// In-flight bounds, beyond which the router answers Retry itself:
// forwarded-but-unanswered requests per frontend connection, and
// outstanding requests per worker. Variables only so the bound tests
// can reach them.
var (
	maxConnInFlight   int64 = 1024
	maxWorkerInFlight int64 = 4096
)

// Stats is a snapshot of router-wide counters.
type Stats struct {
	// Conns counts frontend connections accepted; Open is the current
	// open count.
	Conns, Open int64
	// Frames counts query frames forwarded to workers; Bursts counts
	// the backend flushes that carried them.
	Frames, Bursts int64
	// Retries counts Retry frames the router answered itself (placement
	// moving or down, in-flight bounds, dead backend).
	Retries int64
	// Rehashes counts ring membership changes; Moves completed
	// placement moves; WarmStarts moves that pushed mirrored artifacts;
	// ColdStarts moves placed without any.
	Rehashes, Moves, WarmStarts, ColdStarts int64
	// Drops counts responses whose frontend connection was already gone
	// (the caller's client failed them locally; nothing is owed).
	Drops int64
	// MirrorGens counts registry generations the mirror replayed.
	MirrorGens int64
	// WorkersLive is the current live worker count.
	WorkersLive int64
	// ProtoErrors counts frontend connections killed by malformed
	// frames.
	ProtoErrors int64
}

// Placement states.
const (
	placeReady int32 = iota
	placeMoving
	placeDown
)

// placement is one tenant's routing entry. The struct is created once
// per tenant and never replaced, so frontend connections cache the
// pointer; owner and state are atomics read on every frame.
type placement struct {
	tenant      string
	provisioned bool                   // listed in Config.Tenants: every move pushes it
	wk          atomic.Pointer[worker] // serving owner; nil until first ready
	state       atomic.Int32

	// Move bookkeeping, guarded by Router.pmu: the destination of the
	// in-flight move and a sequence number that fences stale movers.
	want    *worker
	moveSeq uint64
}

// route returns the owner's connection to forward to; ok is false when
// the router must answer Retry itself (moving, down, owner connection
// dead).
func (p *placement) route() (*netserve.Conn, bool) {
	if p.state.Load() != placeReady {
		return nil, false
	}
	wk := p.wk.Load()
	if wk == nil || !wk.live() {
		return nil, false
	}
	return wk.conn.Load(), true
}

// Router is the dispatch tier. All exported methods are safe for
// concurrent use.
type Router struct {
	cfg Config
	reg *registry.Registry

	workers []*worker

	// pmu guards placements, the ring and move bookkeeping.
	pmu        sync.RWMutex
	placements map[string]*placement
	ring       atomic.Pointer[hashRing]

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[*clientConn]struct{}
	closed bool

	quit chan struct{}
	bg   sync.WaitGroup // mirror loop, movers, worker loops
	wg   sync.WaitGroup // frontend connection handlers

	conns64, open, frames, bursts, retries  atomic.Int64
	rehashes, moves, warmStarts, coldStarts atomic.Int64
	drops, mirrorGens, protoErrs            atomic.Int64
}

// New builds a router over cfg.Workers, dials each worker (down ones
// repair in the background) and schedules the initial placement of
// cfg.Tenants.
func New(cfg Config) (*Router, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("router: Config.Workers is required")
	}
	rt := &Router{
		cfg:        cfg,
		reg:        cfg.Registry,
		placements: map[string]*placement{},
		lns:        map[net.Listener]struct{}{},
		conns:      map[*clientConn]struct{}{},
		quit:       make(chan struct{}),
	}
	for _, addr := range cfg.Workers {
		rt.workers = append(rt.workers, &worker{rt: rt, addr: addr})
	}
	rt.ring.Store(&hashRing{})
	for _, wk := range rt.workers {
		cn, err := wk.connect()
		if err != nil {
			rt.logf("router: worker %s down at start: %v", wk.addr, err)
		}
		rt.bg.Add(1)
		go wk.keep(cn)
	}
	rt.pmu.Lock()
	for _, name := range cfg.Tenants {
		p := &placement{tenant: name, provisioned: true}
		p.state.Store(placeMoving) // provisioned by the initial move
		rt.placements[name] = p
	}
	rt.rebalanceLocked()
	rt.pmu.Unlock()
	if rt.reg != nil {
		rt.bg.Add(1)
		go rt.mirrorLoop()
	}
	return rt, nil
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logf != nil {
		rt.cfg.Logf(format, args...)
	}
}

// Stats snapshots the router counters.
func (rt *Router) Stats() Stats {
	live := int64(0)
	for _, wk := range rt.workers {
		if wk.live() {
			live++
		}
	}
	return Stats{
		Conns:       rt.conns64.Load(),
		Open:        rt.open.Load(),
		Frames:      rt.frames.Load(),
		Bursts:      rt.bursts.Load(),
		Retries:     rt.retries.Load(),
		Rehashes:    rt.rehashes.Load(),
		Moves:       rt.moves.Load(),
		WarmStarts:  rt.warmStarts.Load(),
		ColdStarts:  rt.coldStarts.Load(),
		Drops:       rt.drops.Load(),
		MirrorGens:  rt.mirrorGens.Load(),
		WorkersLive: live,
		ProtoErrors: rt.protoErrs.Load(),
	}
}

// poolBalance reports the splices awaiting their answers over all
// workers — zero once every connection has drained. The leak tests
// assert it.
func (rt *Router) poolBalance() int64 {
	var n int64
	for _, wk := range rt.workers {
		if cn := wk.conn.Load(); cn != nil {
			n += cn.InFlight()
		}
	}
	return n
}

// Placements snapshots tenant → worker-address routing (empty address
// while a placement is moving or down).
func (rt *Router) Placements() map[string]string {
	rt.pmu.RLock()
	defer rt.pmu.RUnlock()
	out := make(map[string]string, len(rt.placements))
	for name, p := range rt.placements {
		addr := ""
		if p.state.Load() == placeReady {
			if wk := p.wk.Load(); wk != nil {
				addr = wk.addr
			}
		}
		out[name] = addr
	}
	return out
}

// ErrRouterClosed is returned by Serve after Close.
var ErrRouterClosed = errors.New("router: closed")

// Serve accepts frontend connections on ln until Close. It blocks; run
// it in a goroutine.
func (rt *Router) Serve(ln net.Listener) error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		ln.Close()
		return ErrRouterClosed
	}
	rt.lns[ln] = struct{}{}
	rt.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			rt.mu.Lock()
			delete(rt.lns, ln)
			closed := rt.closed
			rt.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		cc := &clientConn{rt: rt, c: c}
		cc.bw = bufio.NewWriterSize(c, connBuffer)
		rt.mu.Lock()
		if rt.closed {
			rt.mu.Unlock()
			c.Close()
			return ErrRouterClosed
		}
		rt.conns[cc] = struct{}{}
		rt.conns64.Add(1)
		rt.open.Add(1)
		rt.wg.Add(1)
		rt.mu.Unlock()
		go cc.handle()
	}
}

// ListenAndServe listens on addr and serves until Close.
func (rt *Router) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return rt.Serve(ln)
}

// Close tears the router down: listeners close, frontend connections
// close (their callers see connection loss, which the resilient client
// maps to typed errors), worker connections answer their in-flight
// splices Retry, and every background loop exits.
func (rt *Router) Close() error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		rt.bg.Wait()
		rt.wg.Wait()
		return nil
	}
	rt.closed = true
	close(rt.quit)
	for ln := range rt.lns {
		ln.Close()
	}
	conns := make([]*clientConn, 0, len(rt.conns))
	for cc := range rt.conns {
		conns = append(conns, cc)
	}
	rt.mu.Unlock()
	for _, cc := range conns {
		cc.shutdown()
	}
	for _, wk := range rt.workers {
		wk.close()
	}
	rt.bg.Wait()
	rt.wg.Wait()
	return nil
}

// ---------------------------------------------------------------------------
// frontend connections

// clientConn is one accepted frontend connection: a reader goroutine
// that validates frames and splices them onto worker connections, and a
// write side (shared with every worker connection's reader delivering
// answers — it is their netserve.Sink) guarded by wmu.
type clientConn struct {
	rt *Router
	c  net.Conn

	wmu     sync.Mutex
	bw      *bufio.Writer
	werr    error // sticky write error
	pending bool  // buffered bytes awaiting flush, guarded by wmu

	closed   atomic.Bool
	inflight atomic.Int64 // forwarded-but-unanswered frames
}

// shutdown closes the connection; in-flight responses arriving later
// are dropped (the caller's client has already failed them locally).
func (cc *clientConn) shutdown() {
	if cc.closed.CompareAndSwap(false, true) {
		cc.c.Close()
	}
}

// handle runs the connection's read loop to completion and tears down.
func (cc *clientConn) handle() {
	rt := cc.rt
	defer rt.wg.Done()
	defer rt.open.Add(-1)
	cc.readLoop()
	cc.shutdown()
	rt.mu.Lock()
	delete(rt.conns, cc)
	rt.mu.Unlock()
}

// readLoop is the forwarder. While complete frames are buffered it
// resolves each one's placement through the per-connection cache and
// splices it onto the owning worker's connection (whose write lock is
// held for that one splice only); before it blocks it flushes every
// worker it touched, once. A pipelined client write thus
// reaches each worker as one chunk, whatever order its tenants came in.
func (cc *clientConn) readLoop() {
	rt := cc.rt
	br := bufio.NewReaderSize(cc.c, connBuffer)
	buf := make([]byte, 0, 4096)
	cache := make(map[string]*placement)
	var sbuf []byte // the router's own status answers
	var touched []*netserve.Conn
	defer func() { rt.flushWorkers(touched) }()

	for {
		if !netserve.RawFrameBuffered(br, netserve.DefaultMaxFrame) {
			// About to block: hand over what was gathered, and flush any
			// Retry frames owed to this caller.
			touched = rt.flushWorkers(touched)
			cc.Flush()
		}
		var err error
		buf, err = netserve.ReadRawFrame(br, buf, netserve.DefaultMaxFrame)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				rt.protoErrs.Add(1)
			}
			return
		}
		tenant, id, err := netserve.RawQueryMeta(buf)
		if err != nil {
			rt.protoErrs.Add(1)
			return
		}
		rt.frames.Add(1)
		p := cache[string(tenant)] // no-alloc lookup
		if p == nil {
			p = rt.getPlacement(tenant)
			cache[p.tenant] = p
		}
		cn, ok := p.route()
		if ok && cc.inflight.Load() < maxConnInFlight && cn.InFlight() < maxWorkerInFlight {
			cc.inflight.Add(1)
			if cn.Splice(cc, buf) {
				if !slices.Contains(touched, cn) {
					touched = append(touched, cn)
				}
				continue
			}
			cc.inflight.Add(-1)
		}
		// No owner to route to, a bound reached, or the worker connection
		// dead (its in-flight frames are answered Retry the same way): the
		// router answers, buffered until the reader is about to block.
		sbuf = netserve.AppendStatusFrame(sbuf[:0], id, netserve.StatusRetry)
		cc.writeRaw(sbuf)
		rt.retries.Add(1)
	}
}

// flushWorkers flushes every worker connection a reader touched, counting
// the flushes that carried frames, and returns the set emptied, its
// entries cleared so that a dead connection does not stay pinned.
func (rt *Router) flushWorkers(touched []*netserve.Conn) []*netserve.Conn {
	for i, cn := range touched {
		if cn.Flush() {
			rt.bursts.Add(1)
		}
		touched[i] = nil
	}
	return touched[:0]
}

// getPlacement resolves (or creates) the global placement for a tenant
// seen on the wire. Unprovisioned tenants route straight to their ring
// owner — a worker that does not know them answers UnknownTenant,
// which passes through to the caller untouched.
func (rt *Router) getPlacement(tenant []byte) *placement {
	rt.pmu.RLock()
	p := rt.placements[string(tenant)] // no-alloc lookup
	rt.pmu.RUnlock()
	if p != nil {
		return p
	}
	rt.pmu.Lock()
	defer rt.pmu.Unlock()
	if p = rt.placements[string(tenant)]; p != nil {
		return p
	}
	p = &placement{tenant: string(tenant)}
	if wk := rt.ring.Load().owner(tenant); wk != nil {
		p.wk.Store(wk)
		p.state.Store(placeReady)
	} else {
		p.state.Store(placeDown)
	}
	rt.placements[p.tenant] = p
	return p
}

// Answer implements netserve.Sink: one spliced frame's answer from its
// worker, or the Retry its worker connection answers when it dies first.
func (cc *clientConn) Answer(frame []byte, lost bool) {
	switch {
	case lost:
		cc.rt.retries.Add(1)
		cc.writeRaw(frame)
	case !cc.writeRaw(frame):
		cc.rt.drops.Add(1)
	}
	cc.inflight.Add(-1)
}

// writeRaw writes one answer frame to the caller. False means the
// connection is gone and the frame was dropped.
func (cc *clientConn) writeRaw(frame []byte) bool {
	cc.wmu.Lock()
	if cc.werr != nil || cc.closed.Load() {
		cc.wmu.Unlock()
		return false
	}
	// Deadline only on a buffer spill; the common append is syscall-free.
	if cc.bw.Available() < len(frame) {
		cc.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	}
	if _, err := cc.bw.Write(frame); err != nil {
		cc.werr = err
		cc.wmu.Unlock()
		cc.shutdown()
		return false
	}
	cc.pending = true
	cc.wmu.Unlock()
	return true
}

// Flush pushes buffered response/status bytes to the caller.
func (cc *clientConn) Flush() {
	cc.wmu.Lock()
	if cc.pending && cc.werr == nil && !cc.closed.Load() {
		cc.c.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := cc.bw.Flush(); err != nil {
			cc.werr = err
			cc.wmu.Unlock()
			cc.shutdown()
			return
		}
		cc.pending = false
	}
	cc.wmu.Unlock()
}
