package netserve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
)

// Config tunes a Server. The zero value is not usable: Fleet is required.
// How the reader gathers (readLoop), how many workers a connection has,
// how many rows a burst may hold, the buffer sizes, the flush spins, the
// write timeout, the in-flight bound and the frame caps are not options:
// one value of each is in use, the constants below and DefaultMaxFrame
// (query frames) and DefaultMaxArtifactFrame (artifact frames).
type Config struct {
	// Fleet is the multi-tenant dispatch plane every decoded request is
	// fed into (required).
	Fleet *fleet.Fleet
	// ReadTimeout bounds each frame read: a connection that goes silent
	// mid-frame for longer is torn down. 0 (the default) disables it —
	// idle-but-healthy connections are normal for request/response
	// clients, so this is opt-in.
	ReadTimeout time.Duration
	// Artifacts, when set, serves artifact-fetch frames from the store
	// (typically a *registry.Registry) — the over-the-wire pull a router
	// mirror or a freshly placed worker warm-starts from. Nil answers
	// such frames StatusError (the connection and its queries live on).
	Artifacts ArtifactStore
	// Install, when set, accepts artifact-push frames: the sink installs
	// pushed generations (or cold-places a tenant) so a router can move a
	// placement onto this worker without retraining. Nil answers such
	// frames StatusError; with neither hook set, frames past
	// DefaultMaxFrame still end the connection.
	Install ArtifactSink
}

const (
	// workersPerConn is the per-connection dispatch concurrency: how many
	// of one connection's bursts may sit inside coalescer gathers at
	// once. The bound is per connection by design — a slow tenant
	// saturating its callers' workers stalls only the connections that
	// talk to it; neighbours keep their own workers.
	workersPerConn = 32
	// maxBurst caps the rows of one burst — the server-side mirror of the
	// coalescer's MaxBatch. A burst that reaches it is submitted alone.
	maxBurst = 64
	// flushSpins is how many scheduler yields a write loop spends on an
	// empty queue before it flushes, letting the answers (server) or
	// requests (client) about to land join the same syscall. The server's
	// writer spins only while requests of its connection are still in
	// flight — the other bursts of the same read; with nothing in flight
	// it flushes at once.
	flushSpins = 2
)

// maxConnInFlight bounds how many decoded-but-unanswered requests one
// connection may hold. At the bound the reader stops decoding until
// responses drain, so a fast writer cannot run the server out of pooled
// request state through a slow-reading peer. A variable only so the
// back-pressure test can reach the bound.
var maxConnInFlight = 1024

// writeTimeout bounds each response write and flush. Without it a peer
// that stops reading stalls its connection's writer forever, pinning its
// pooled bursts and — through the in-flight bound — eventually its
// reader. A stall past the deadline counts in Stats.WriteStalls and kills
// the connection. A server reads it once, in NewServer; a variable only so
// the stall tests can shorten it.
var writeTimeout = 10 * time.Second

// Stats is a snapshot of server-wide wire counters.
type Stats struct {
	// Conns counts connections accepted since start; Open is the
	// instantaneous open-connection count.
	Conns, Open int64
	// Requests counts request frames decoded; Responses counts response
	// frames written (every decoded request produces exactly one).
	Requests, Responses int64
	// Flushes counts buffered-writer flushes; Responses/Flushes is the
	// write-coalescing factor the batch-aware flush path achieves.
	Flushes int64
	// ProtoErrors counts connections killed by malformed frames.
	ProtoErrors int64
	// WriteStalls counts connections killed by the write-stall watchdog:
	// a response write or flush that sat blocked past writeTimeout.
	WriteStalls int64
}

// reqCtx is one in-flight request's pooled state: the decoded row and the
// encoded response frame. It is leased by the connection reader, answered
// by a worker through its burst, and recycled by the response writer —
// never shared, never escaping.
type reqCtx struct {
	id    uint64
	flags byte
	x     []float64
	out   []byte // encoded response frame, length prefix included
	// aux is extra response payload written straight after out — the
	// zero-copy splice of an mmap'd artifact whose frame length prefix
	// (in out) already covers it. Nil on the query path.
	aux []byte
}

// burst is the requests for one tenant among the frames the reader found
// buffered on one connection, submitted to the fleet as a single multi-row
// query — one coalescer waiter, one channel hop and one writer pass for
// them all. Pooled; its answer callback is a method value minted once per
// burst object so the steady state allocates nothing.
type burst struct {
	name  string // interned tenant name
	reqs  []*reqCtx
	rows  [][]float64 // rows[i] aliases reqs[i].x
	dls   []int64     // unix-nano deadlines, 0 = none
	hasDL bool
	each  func(i int, res serve.Result, err error)

	// Artifact-op fields: a burst with artOp != 0 carries exactly one
	// artifact request instead of query rows. Key and payload are copied
	// off the read buffer — the control plane buys simplicity with
	// allocations the query path never makes.
	artOp    byte // 0 = query burst, else frameArtFetch / frameArtPush
	artFlags byte
	artGen   uint64
	artKey   string
	artData  []byte
}

func newBurst() *burst {
	bu := &burst{}
	bu.each = bu.answer
	return bu
}

// add appends one decoded request to the burst, taking over rc.
func (bu *burst) add(rc *reqCtx, req request) {
	rc.id = req.id
	rc.flags = req.flags
	rc.x = decodeFloats(rc.x[:0], req.x)
	rc.out = rc.out[:0]
	bu.reqs = append(bu.reqs, rc)
	bu.rows = append(bu.rows, rc.x)
	bu.dls = append(bu.dls, req.deadline)
	if req.deadline != 0 {
		bu.hasDL = true
	}
}

// answer encodes row i's result (or its per-row serving failure) into the
// request's response frame. It runs inside the fleet's delivery callback,
// where res.Y/res.Std alias pooled batch rows — encoding immediately is
// what lets the server skip a staging copy entirely.
func (bu *burst) answer(i int, res serve.Result, err error) {
	rc := bu.reqs[i]
	switch {
	case err == nil:
		std := res.Std
		if rc.flags&FlagNoStd != 0 {
			std = nil
		}
		rc.out = appendResponse(rc.out[:0], rc.id, StatusOK, byte(res.Src), res.Y, std, "")
	case errors.Is(err, fleet.ErrOverloaded):
		rc.out = appendResponse(rc.out[:0], rc.id, StatusRetry, 0, nil, nil, "")
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		rc.out = appendResponse(rc.out[:0], rc.id, StatusExpired, 0, nil, nil, "")
	case errors.Is(err, fleet.ErrUnknownTenant):
		rc.out = appendResponse(rc.out[:0], rc.id, StatusUnknownTenant, 0, nil, nil, "")
	default:
		rc.out = appendResponse(rc.out[:0], rc.id, StatusError, byte(res.Src), nil, nil, err.Error())
	}
}

// failRemaining answers every not-yet-answered row — with err's status
// mapping when err is non-nil, else with a StatusError carrying msg. The
// backstop for whole-burst failures and escaped panics, upholding the
// never-silently-dropped contract.
func (bu *burst) failRemaining(err error, msg string) {
	for i, rc := range bu.reqs {
		if len(rc.out) != 0 {
			continue
		}
		if err != nil {
			bu.answer(i, serve.Result{}, err)
		} else {
			rc.out = appendResponse(rc.out[:0], rc.id, StatusError, 0, nil, nil, msg)
		}
	}
}

// Server serves a Fleet over TCP. All exported methods are safe for
// concurrent use.
type Server struct {
	cfg          Config
	fl           *fleet.Fleet
	writeTimeout time.Duration

	pool  sync.Pool // *reqCtx
	bpool sync.Pool // *burst

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[*serverConn]struct{}
	closed bool
	wg     sync.WaitGroup // one per live connection handler

	draining atomic.Bool

	conns64, open, reqs, resps, flushes, protoErrs, stalls atomic.Int64

	// Pool-lease accounting: leased-minus-released must return to zero
	// once every connection drains. The leak tests assert it; a nonzero
	// residue means a teardown path lost pooled state.
	rcLeases, rcReleases, buLeases, buReleases atomic.Int64
}

// NewServer builds a server over cfg.Fleet. It panics on a nil fleet —
// that is a wiring bug, not a runtime condition.
func NewServer(cfg Config) *Server {
	if cfg.Fleet == nil {
		panic("netserve: Config.Fleet is required")
	}
	return &Server{
		cfg:          cfg,
		fl:           cfg.Fleet,
		writeTimeout: writeTimeout,
		lns:          make(map[net.Listener]struct{}),
		conns:        make(map[*serverConn]struct{}),
	}
}

// Stats returns the server-wide wire counters.
func (s *Server) Stats() Stats {
	return Stats{
		Conns:       s.conns64.Load(),
		Open:        s.open.Load(),
		Requests:    s.reqs.Load(),
		Responses:   s.resps.Load(),
		Flushes:     s.flushes.Load(),
		ProtoErrors: s.protoErrs.Load(),
		WriteStalls: s.stalls.Load(),
	}
}

// poolBalance reports outstanding pooled objects: request contexts and
// bursts leased but not yet recycled. Both are zero once every connection
// has drained.
func (s *Server) poolBalance() (reqs, bursts int64) {
	return s.rcLeases.Load() - s.rcReleases.Load(),
		s.buLeases.Load() - s.buReleases.Load()
}

// lease takes a recycled request context (or mints one).
func (s *Server) lease() *reqCtx {
	s.rcLeases.Add(1)
	rc, _ := s.pool.Get().(*reqCtx)
	if rc == nil {
		rc = &reqCtx{}
	}
	return rc
}

func (s *Server) release(rc *reqCtx) {
	s.rcReleases.Add(1)
	s.pool.Put(rc)
}

// leaseBurst takes a recycled burst (or mints one) reset for gathering.
func (s *Server) leaseBurst() *burst {
	s.buLeases.Add(1)
	bu, _ := s.bpool.Get().(*burst)
	if bu == nil {
		bu = newBurst()
	}
	bu.name = ""
	bu.reqs = bu.reqs[:0]
	bu.rows = bu.rows[:0]
	bu.dls = bu.dls[:0]
	bu.hasDL = false
	bu.artOp = 0
	bu.artFlags = 0
	bu.artGen = 0
	bu.artKey = ""
	bu.artData = nil
	return bu
}

func (s *Server) releaseBurst(bu *burst) {
	// Drop artifact payload references now, not at next lease — a pooled
	// burst must not pin megabytes of pushed artifact.
	bu.artKey = ""
	bu.artData = nil
	s.buReleases.Add(1)
	s.bpool.Put(bu)
}

// Serve accepts connections on ln until Close (or a listener error) and
// handles each on its own goroutine set. It blocks; run it in a
// goroutine. Multiple Serve calls on different listeners are allowed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			delete(s.lns, ln)
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if tc, ok := c.(*net.TCPConn); ok {
			// Responses are small frames on a request/response cadence:
			// Nagle would hold them hostage to delayed ACKs.
			tc.SetNoDelay(true)
		}
		s.conns64.Add(1)
		s.open.Add(1)
		cn := &serverConn{
			srv:     s,
			c:       c,
			work:    make(chan *burst, 2*workersPerConn),
			wq:      make(chan *burst, 2*workersPerConn),
			sem:     make(chan struct{}, maxConnInFlight),
			tenants: make(map[string]*connTenant),
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			s.open.Add(-1)
			return ErrServerClosed
		}
		s.conns[cn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go cn.handle()
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("netserve: server closed")

// BeginDrain marks the server draining, flipping /readyz not-ready before
// any listener closes — the load balancer stops routing new work to this
// replica while it still answers everything in flight. Close calls it
// implicitly; calling it ahead of Close gives the balancer a head start.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain (or Close) has run.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains the server: listeners stop accepting, every connection
// stops reading new frames, requests already decoded are served and their
// responses flushed, then the connections close. Idempotent. The fleet is
// not touched — it belongs to the caller.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for cn := range s.conns {
		cn.closeRead()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// serverConn is one accepted connection: a reader goroutine decoding
// frames into pooled bursts, workersPerConn workers feeding the fleet,
// and a writer goroutine coalescing their responses into shared flushes.
type serverConn struct {
	srv  *Server
	c    net.Conn
	work chan *burst // reader → workers
	wq   chan *burst // workers → writer
	// sem holds one token per decoded-but-unanswered request (cap
	// maxConnInFlight): acquired by the reader before leasing a request
	// context, released by the writer after recycling it.
	sem chan struct{}
	// readDone flips before the read side shuts so the reader's periodic
	// SetReadDeadline(now+ReadTimeout) cannot revive a connection that
	// closeRead already expired via its deadline fallback.
	readDone atomic.Bool
	// tenants interns tenant-name bytes once per connection, so the
	// steady-state lookup (m[string(frameBytes)], which the compiler
	// performs without materializing the string) never allocates; the
	// value carries the tenant's open burst.
	tenants map[string]*connTenant
	open    []*connTenant // tenants whose burst is open, reader-owned

	workers sync.WaitGroup
	writer  sync.WaitGroup
}

// closeRead shuts the connection's read side so the reader goroutine
// unblocks and the drain sequence starts; in-flight requests still get
// their responses written.
func (cn *serverConn) closeRead() {
	cn.readDone.Store(true)
	type readCloser interface{ CloseRead() error }
	if rc, ok := cn.c.(readCloser); ok {
		rc.CloseRead()
		return
	}
	cn.c.SetReadDeadline(time.Now())
}

// handle runs the connection to completion: it is the reader goroutine,
// and it owns the teardown ordering — reader stops, workers drain, writer
// flushes, socket closes. A panic anywhere in this connection's pipeline
// is contained to the connection.
func (cn *serverConn) handle() {
	s := cn.srv
	defer s.wg.Done()
	defer s.open.Add(-1)
	for i := 0; i < workersPerConn; i++ {
		cn.workers.Add(1)
		go cn.workLoop()
	}
	cn.writer.Add(1)
	go cn.writeLoop()

	cn.readLoop()

	close(cn.work)
	cn.workers.Wait()
	close(cn.wq)
	cn.writer.Wait()
	cn.c.Close()
	s.mu.Lock()
	delete(s.conns, cn)
	s.mu.Unlock()
}

// connTenant is one tenant as one connection sees it: the interned name
// and the burst the reader is gathering for it (nil when none is open).
type connTenant struct {
	name string
	bu   *burst
}

// submitOpen hands every open burst to the workers.
func (cn *serverConn) submitOpen() {
	for i, ct := range cn.open {
		if ct.bu != nil { // nil: reached the row cap and went alone
			cn.work <- ct.bu
			ct.bu = nil
		}
		cn.open[i] = nil
	}
	cn.open = cn.open[:0]
}

// readLoop decodes request frames until EOF, a read error, or a protocol
// violation (after which the stream framing can no longer be trusted and
// the connection dies). It gathers by the wire tier's one rule: while
// complete frames are already buffered, each request joins its tenant's
// open burst; every open burst is submitted before the reader blocks —
// on the socket or on the in-flight bound — before a control-plane frame,
// and on exit. A pipelined write of 16 frames for 4 tenants thus crosses
// the fleet as 4 submissions, however the tenants interleave.
func (cn *serverConn) readLoop() {
	s := cn.srv
	defer func() {
		if pv := recover(); pv != nil {
			s.protoErrs.Add(1)
		}
		// Serve whatever was decoded before the stream died.
		cn.submitOpen()
	}()
	br := bufio.NewReaderSize(cn.c, connBuffer)
	buf := make([]byte, 0, 4096)
	readMax := DefaultMaxFrame
	if s.cfg.Artifacts != nil || s.cfg.Install != nil {
		// Artifact frames dwarf query frames; the parsers still hold
		// query bodies to DefaultMaxFrame-compatible geometry.
		readMax = DefaultMaxArtifactFrame
	}
	for {
		if !RawFrameBuffered(br, DefaultMaxFrame) {
			// Nothing more to gather without blocking: submit now.
			cn.submitOpen()
		}
		if s.cfg.ReadTimeout > 0 {
			if cn.readDone.Load() {
				return
			}
			cn.c.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		var err error
		buf, err = ReadRawFrame(br, buf, readMax)
		if err != nil {
			if err == errOversized || err == errEmptyFrame {
				s.protoErrs.Add(1)
			}
			return
		}
		frame := buf[lenPrefix:]
		if len(frame) >= 2 && frame[1] != frameQuery {
			// Control-plane frame: submit the gathered query bursts first,
			// then hand the artifact op through the same worker pipeline.
			cn.submitOpen()
			if !cn.readArtFrame(frame) {
				return
			}
			continue
		}
		if len(frame) > DefaultMaxFrame {
			// The raised artifact read cap never loosens the query bound.
			s.protoErrs.Add(1)
			return
		}
		req, err := parseRequest(frame)
		if err != nil {
			s.protoErrs.Add(1)
			return
		}
		s.reqs.Add(1)
		select {
		case cn.sem <- struct{}{}:
		default:
			// In-flight bound reached: submit what is gathered so its
			// completions can free tokens, then block for one.
			cn.submitOpen()
			cn.sem <- struct{}{}
		}
		ct := cn.tenant(req.tenant)
		if ct.bu == nil {
			ct.bu = s.leaseBurst()
			ct.bu.name = ct.name
			cn.open = append(cn.open, ct)
		}
		ct.bu.add(s.lease(), req)
		if len(ct.bu.reqs) >= maxBurst {
			cn.work <- ct.bu
			ct.bu = nil
		}
	}
}

// errNoArtifactHook answers an artifact op on a server whose hook for
// it (Config.Artifacts, Config.Install) is unset.
const errNoArtifactHook = "netserve: server takes no artifact frames of this type"

// readArtFrame decodes one artifact frame and submits it through the
// worker pipeline as a single-request burst (serveArt answers a frame
// whose hook is unset StatusError). False means the frame was malformed —
// the stream dies.
func (cn *serverConn) readArtFrame(buf []byte) bool {
	s := cn.srv
	var a artPush
	var err error
	switch buf[1] {
	case frameArtFetch:
		var af artFetch
		af, err = parseArtFetch(buf)
		a = artPush{id: af.id, gen: af.gen, flags: af.flags, key: af.key}
	case frameArtPush:
		if a, err = parseArtPush(buf); a.flags&FlagArtCold != 0 {
			a.data = nil // the cold-place marker
		} else {
			a.data = append([]byte{}, a.data...) // off the read buffer
		}
	default:
		err = errBadType
	}
	if err != nil {
		s.protoErrs.Add(1)
		return false
	}
	cn.sem <- struct{}{}
	bu := s.leaseBurst()
	bu.artOp, bu.artFlags, bu.artGen, bu.artKey, bu.artData = buf[1], a.flags, a.gen, string(a.key), a.data
	rc := s.lease()
	rc.id, rc.flags, rc.out, rc.aux = a.id, 0, rc.out[:0], nil
	bu.reqs = append(bu.reqs, rc)
	s.reqs.Add(1)
	cn.work <- bu
	return true
}

// tenant maps tenant-name bytes to the connection's entry for it,
// allocating only the first time a name is seen on this connection.
func (cn *serverConn) tenant(b []byte) *connTenant {
	if ct, ok := cn.tenants[string(b)]; ok { // no-alloc map lookup
		return ct
	}
	ct := &connTenant{name: string(b)}
	cn.tenants[ct.name] = ct
	return ct
}

// workLoop serves decoded bursts through the fleet. Each worker blocks
// inside the tenant coalescer's gather with its peers from every other
// connection — this is where cross-connection batching happens.
func (cn *serverConn) workLoop() {
	defer cn.workers.Done()
	for bu := range cn.work {
		cn.serveBurst(bu)
		cn.wq <- bu
	}
}

// serveBurst answers a burst's rows in place. All fleet-level failures
// map to status frames — a request is never dropped without an answer —
// and a panic that escapes the fleet's own containment is caught here,
// poisoning only this burst.
func (cn *serverConn) serveBurst(bu *burst) {
	if bu.artOp != 0 {
		cn.serveArt(bu)
		return
	}
	defer func() {
		if pv := recover(); pv != nil {
			bu.failRemaining(nil, fmt.Sprint(pv))
		}
	}()
	var dls []int64
	if bu.hasDL {
		dls = bu.dls
	}
	if err := cn.srv.fl.QueryRows(bu.name, bu.rows, dls, bu.each); err != nil {
		// Whole-burst rejection (unknown tenant, closed fleet, bad row
		// geometry): every row still gets its status frame.
		bu.failRemaining(err, "")
	}
}

// serveArt answers a burst's single artifact op. A fetch of a committed
// generation stages only the 24-byte header in pooled scratch and hands
// the store's bytes (typically a live registry mmap) to the writer as
// the aux splice — the artifact crosses from page cache to socket
// without an intermediate copy. Hook panics poison only this op.
func (cn *serverConn) serveArt(bu *burst) {
	s := cn.srv
	rc := bu.reqs[0]
	defer func() {
		if pv := recover(); pv != nil {
			rc.aux = nil
			rc.out = appendArtData(rc.out[:0], rc.id, 0, StatusError, []byte(fmt.Sprint(pv)))
		}
	}()
	if (bu.artOp == frameArtFetch && s.cfg.Artifacts == nil) || (bu.artOp == frameArtPush && s.cfg.Install == nil) {
		// A worker whose control plane is off refuses the op but keeps
		// the connection: it carries the worker's hot traffic too.
		rc.out = appendArtData(rc.out[:0], rc.id, 0, StatusError, []byte(errNoArtifactHook))
		return
	}
	switch bu.artOp {
	case frameArtFetch:
		if bu.artFlags&FlagArtStat != 0 {
			gen, ok := s.cfg.Artifacts.StatArtifact(bu.artKey)
			if ok {
				rc.out = appendArtData(rc.out[:0], rc.id, gen, StatusOK, nil)
			} else {
				rc.out = appendArtData(rc.out[:0], rc.id, 0, StatusUnknownTenant, nil)
			}
			return
		}
		data, gen, ok, err := s.cfg.Artifacts.FetchArtifact(bu.artKey, bu.artGen)
		switch {
		case err != nil:
			rc.out = appendArtData(rc.out[:0], rc.id, 0, StatusError, []byte(err.Error()))
		case !ok:
			rc.out = appendArtData(rc.out[:0], rc.id, 0, StatusUnknownTenant, nil)
		default:
			rc.out = appendArtDataHeader(rc.out[:0], rc.id, gen, StatusOK, len(data))
			rc.aux = data
		}
	case frameArtPush:
		if err := s.cfg.Install.InstallArtifact(bu.artKey, bu.artGen, bu.artData); err != nil {
			rc.out = appendArtData(rc.out[:0], rc.id, 0, StatusError, []byte(err.Error()))
		} else {
			rc.out = appendArtData(rc.out[:0], rc.id, bu.artGen, StatusOK, nil)
		}
	}
}

// writeLoop writes completed bursts with flush coalescing: after writing
// a burst's responses it greedily drains everything already queued, and
// on an empty queue, while the connection still has requests in flight,
// it donates up to flushSpins scheduler yields for their workers to
// enqueue — so the responses of one gather leave in one buffered flush
// instead of one syscall each. A write error degrades the loop to a pure
// drain (requests still recycle; the reader is unblocked by closing the
// socket) so the connection tears down without losing pooled state.
func (cn *serverConn) writeLoop() {
	defer cn.writer.Done()
	s := cn.srv
	bw := bufio.NewWriterSize(cn.c, connBuffer)
	var werr error
	write := func(bu *burst) {
		if werr == nil {
			cn.c.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		}
		for _, rc := range bu.reqs {
			if werr == nil {
				if _, werr = bw.Write(rc.out); werr != nil {
					// The peer is gone (or stalled past the write
					// deadline): stop the reader too.
					cn.noteWriteError(werr)
				}
				if werr == nil && len(rc.aux) > 0 {
					// Artifact splice: a large aux bypasses the bufio
					// copy and goes straight to the socket.
					if _, werr = bw.Write(rc.aux); werr != nil {
						cn.noteWriteError(werr)
					}
				}
				s.resps.Add(1)
			}
			rc.aux = nil
			s.release(rc)
			<-cn.sem
		}
		s.releaseBurst(bu)
	}
	for bu := range cn.wq {
		write(bu)
		spins := 0
	drain:
		for {
			select {
			case bu2, ok := <-cn.wq:
				if !ok {
					break drain
				}
				write(bu2)
				spins = 0
			default:
				if len(cn.sem) > 0 && spins < flushSpins {
					spins++
					runtime.Gosched()
					continue
				}
				break drain
			}
		}
		if werr == nil {
			cn.c.SetWriteDeadline(time.Now().Add(s.writeTimeout))
			if werr = bw.Flush(); werr != nil {
				cn.noteWriteError(werr)
			} else {
				s.flushes.Add(1)
			}
		}
	}
	if werr == nil {
		cn.c.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		bw.Flush()
	}
}

// noteWriteError classifies a response-path write failure — a deadline
// miss is a write stall, anything else a dead peer — and stops the reader
// so the connection tears down.
func (cn *serverConn) noteWriteError(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		cn.srv.stalls.Add(1)
	}
	cn.closeRead()
}
