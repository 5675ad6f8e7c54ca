package netserve

// This file implements ResilientClient, the wire client: a small pool of
// multiplexed connections (transport, client.go) with automatic reconnect
// under jittered exponential backoff, a deadline-aware retry budget over
// the protocol's explicit retry signal and transport failures, and a
// per-tenant circuit breaker so a hard-down tenant sheds locally instead of
// burning its callers' retry budgets. The steady state — healthy
// connection, first attempt succeeds — adds only atomic bookkeeping to the
// transport's round-trip and stays allocation-free.

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xrand"
)

var (
	// ErrNoConn is returned when every pooled connection is down and
	// reconnecting; the dial loop keeps running in the background.
	ErrNoConn = errors.New("netserve: no live connection")
	// ErrCircuitOpen is the match target for circuit-breaker sheds; the
	// concrete error is a *CircuitOpenError naming the tenant.
	ErrCircuitOpen = errors.New("netserve: circuit open")
)

// CircuitOpenError reports a query shed by an open per-tenant circuit
// breaker. errors.Is(err, ErrCircuitOpen) matches it.
type CircuitOpenError struct{ Tenant string }

func (e *CircuitOpenError) Error() string {
	return "netserve: circuit open for tenant " + e.Tenant
}

func (e *CircuitOpenError) Is(target error) bool { return target == ErrCircuitOpen }

// Per-tenant circuit-breaker constants: a rolling window of the last
// breakerWindow outcomes (at most 64 — the window lives in one uint64
// shift register) trips the breaker open once it holds at least
// breakerMinSamples samples, so one early failure cannot open it, and
// their failure fraction reaches breakerTripRate.
const (
	breakerWindow     = 64
	breakerMinSamples = 16
	breakerTripRate   = 0.5
)

// breakerCooldown is how long an open breaker waits before letting one
// half-open probe through. A variable only so tests can reach it.
var breakerCooldown = time.Second

const (
	bkClosed = iota
	bkOpen
	bkHalfOpen
)

// breaker is one tenant's circuit breaker: a rolling error-rate window in
// a shift register, the classic closed → open → half-open state machine,
// and a preallocated open error so shedding allocates nothing.
type breaker struct {
	tenant  string
	openErr *CircuitOpenError
	// state is mirrored atomically so the healthy fast path (closed →
	// allow) costs one load instead of a mutex round trip; dirty mirrors
	// "the window holds at least one failure" for the same reason.
	state atomic.Int32
	dirty atomic.Bool

	mu       sync.Mutex
	bits     uint64 // sample ring, bit 0 newest, 1 = failure
	n, fails int
	openedAt time.Time
	probing  bool // half-open: one probe in flight
}

func newBreaker(tenant string) *breaker {
	return &breaker{tenant: tenant, openErr: &CircuitOpenError{Tenant: tenant}}
}

// allow reports whether a query may proceed, transitioning open →
// half-open once the cooldown elapses (the caller becomes the probe).
func (b *breaker) allow() bool {
	if b.state.Load() == bkClosed {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state.Load() {
	case bkClosed:
		return true
	case bkOpen:
		if time.Since(b.openedAt) >= breakerCooldown {
			b.state.Store(bkHalfOpen)
			b.probing = true
			return true
		}
		return false
	default: // half-open: one probe at a time
		if !b.probing {
			b.probing = true
			return true
		}
		return false
	}
}

// record feeds one query outcome back. In half-open state the probe's
// outcome decides: success closes the breaker with a fresh window,
// failure reopens it. Stragglers from before a trip are ignored.
//
// The healthy steady state — closed breaker, success, no failures in the
// window — returns without the mutex: successes only matter as dilution
// once a failure is in the window (the `dirty` mirror), so an all-clean
// window need not record them at all.
func (b *breaker) record(fail bool) {
	if !fail && b.state.Load() == bkClosed && !b.dirty.Load() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state.Load() {
	case bkOpen:
		return
	case bkHalfOpen:
		b.probing = false
		if fail {
			b.state.Store(bkOpen)
			b.openedAt = time.Now()
		} else {
			b.state.Store(bkClosed)
			b.reset()
		}
		return
	}
	if b.n == breakerWindow {
		if b.bits>>(breakerWindow-1)&1 == 1 {
			b.fails--
		}
		b.n--
	}
	b.bits <<= 1
	if fail {
		b.bits |= 1
		b.fails++
		b.dirty.Store(true)
	}
	b.n++
	switch {
	case b.n >= breakerMinSamples && float64(b.fails)/float64(b.n) >= breakerTripRate:
		b.state.Store(bkOpen)
		b.openedAt = time.Now()
		b.reset()
	case b.fails == 0:
		// Every failure aged out: drop the window and return the success
		// path to lock-free.
		b.reset()
	}
}

// reset clears the sample window (caller holds mu).
func (b *breaker) reset() {
	b.bits, b.n, b.fails = 0, 0, 0
	b.dirty.Store(false)
}

// ResilientConfig tunes a ResilientClient. The zero value selects the
// defaults.
type ResilientConfig struct {
	// Conns is the connection-pool size (default 2). Queries round-robin
	// across live connections; dead ones repair in the background.
	Conns int
	// Client tunes each pooled connection.
	Client ClientConfig
}

func (c *ResilientConfig) fill() {
	if c.Conns <= 0 {
		c.Conns = 2
	}
	// c.Client is filled by dial on each (re)connect; filling it here too
	// would double-apply the negative-means-disable conversion.
}

// Retry, reconnect and blackhole-detection constants.
const (
	// maxAttempts bounds one call's tries across connections: the first
	// attempt plus retries after ErrRetry or a transport failure.
	// Definitive answers (OK, expired, unknown tenant, server error) never
	// retry.
	maxAttempts = 3
	// retryBackoff / retryBackoffMax shape the jittered exponential
	// backoff between attempts. A backoff that would overshoot the
	// request's deadline returns the last error instead of sleeping into
	// certain expiry.
	retryBackoff    = 2 * time.Millisecond
	retryBackoffMax = 250 * time.Millisecond
	// reconnectBackoff / reconnectBackoffMax shape the background redial
	// loop for a broken pooled connection.
	reconnectBackoff    = 10 * time.Millisecond
	reconnectBackoffMax = time.Second
	// expireStreak is how many consecutive client-side deadline
	// expirations on one connection condemn it as blackholed and force a
	// reconnect. A stalled-but-open TCP connection never yields a
	// transport error on its own — this streak is the only signal that
	// crosses it.
	expireStreak = 8
	// jitterSeed fixes the jitter stream.
	jitterSeed = 1
)

// rslot is one pooled connection slot: the live transport (nil while
// down) and its repair/blackhole-detection state.
type rslot struct {
	cl        atomic.Pointer[transport]
	repairing atomic.Bool
	expStreak atomic.Int32 // consecutive client-side expirations
}

// ResilientStats snapshots a ResilientClient's failure-handling counters.
type ResilientStats struct {
	// Conns is the pool size; Live is how many connections are currently
	// up.
	Conns, Live int
	// Retries counts extra attempts, Reconnects successful redials,
	// BreakerShed queries refused by an open breaker.
	Retries, Reconnects, BreakerShed int64
}

// ResilientClient is the wire client: multiplexed connections with a
// zero-allocation steady state, plus reconnection, retries and per-tenant
// circuit breaking. Safe for concurrent use.
type ResilientClient struct {
	cfg  ResilientConfig
	addr string

	slots []*rslot
	next  atomic.Uint64

	bmu      sync.RWMutex
	breakers map[string]*breaker
	lastBk   atomic.Pointer[breaker] // most recently used breaker, skips bmu

	rmu sync.Mutex
	rng *xrand.Rand

	smu     sync.Mutex // guards closed-flag vs. repair spawning
	closed  atomic.Bool
	quit    chan struct{}
	repairs sync.WaitGroup

	retries, reconnects, breakerShed atomic.Int64
}

// DialResilient builds the pool. Connections that fail to dial start
// repairing in the background; only if every connection fails is the
// first dial error returned.
func DialResilient(addr string, cfg ResilientConfig) (*ResilientClient, error) {
	cfg.fill()
	rc := &ResilientClient{
		cfg:      cfg,
		addr:     addr,
		slots:    make([]*rslot, cfg.Conns),
		breakers: map[string]*breaker{},
		rng:      xrand.New(jitterSeed),
		quit:     make(chan struct{}),
	}
	var firstErr error
	live := 0
	for i := range rc.slots {
		sl := &rslot{}
		rc.slots[i] = sl
		cl, err := dial(addr, cfg.Client)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			rc.spawnRepair(sl)
			continue
		}
		sl.cl.Store(cl)
		live++
	}
	if live == 0 {
		rc.Close()
		return nil, firstErr
	}
	return rc, nil
}

// Close tears the pool down: repair loops stop, every live connection
// closes, in-flight queries fail with ErrClientClosed. Idempotent.
func (rc *ResilientClient) Close() error {
	rc.smu.Lock()
	already := rc.closed.Swap(true)
	if !already {
		close(rc.quit)
	}
	rc.smu.Unlock()
	if !already {
		for _, sl := range rc.slots {
			if cl := sl.cl.Swap(nil); cl != nil {
				cl.Close()
			}
		}
	}
	rc.repairs.Wait()
	return nil
}

// Stats snapshots the failure-handling counters.
func (rc *ResilientClient) Stats() ResilientStats {
	live := 0
	for _, sl := range rc.slots {
		if sl.cl.Load() != nil {
			live++
		}
	}
	return ResilientStats{
		Conns:       len(rc.slots),
		Live:        live,
		Retries:     rc.retries.Load(),
		Reconnects:  rc.reconnects.Load(),
		BreakerShed: rc.breakerShed.Load(),
	}
}

// Query is the allocating convenience form of QueryInto: the answer
// comes back in fresh caller-owned slices (up to 256 outputs).
func (rc *ResilientClient) Query(tenant string, x []float64, deadline time.Time) (WireResult, error) {
	return rc.QueryInto(tenant, x, make([]float64, 256), make([]float64, 256), deadline)
}

// QueryInto submits one row to the named tenant through the pool with
// retries and circuit breaking. The answer lands in y (and std, when the
// surrogate produced one; a nil std asks the server not to send it),
// which must hold the tenant's output dimensionality; deadline is
// propagated into the server's admission control, the zero time meaning
// none. Safe for concurrent use; each concurrent caller must pass its own
// buffers.
func (rc *ResilientClient) QueryInto(tenant string, x, y, std []float64, deadline time.Time) (WireResult, error) {
	if rc.closed.Load() {
		return WireResult{}, ErrClientClosed // before the breaker: not a tenant-health signal
	}
	br := rc.breakerFor(tenant)
	if !br.allow() {
		rc.breakerShed.Add(1)
		return WireResult{}, br.openErr
	}
	var res WireResult
	err := rc.attempts(deadline, func(tr *transport) (err error) {
		res, err = tr.QueryInto(tenant, x, y, std, deadline)
		return err
	})
	br.record(isBreakerFailure(err))
	return res, err
}

// isBreakerFailure classifies outcomes for the breaker window. Overload
// sheds and deadline expiries are load signals, not tenant-health
// signals — the retry backoff owns those — and a too-small
// caller buffer is the caller's bug. Everything else that errs (server
// errors, unknown tenant, exhausted transport retries) counts.
func isBreakerFailure(err error) bool {
	return err != nil && !errors.Is(err, ErrRetry) &&
		!errors.Is(err, ErrExpired) && !errors.Is(err, errShortBuffer)
}

// attempts is the one retry ladder, for queries and artifact calls alike:
// up to maxAttempts tries of call across the pool, jittered exponential
// backoff between them, never sleeping past a non-zero deadline.
// Transport failures condemn the connection and try another, explicit
// sheds back off, definitive answers return at once.
func (rc *ResilientClient) attempts(deadline time.Time, call func(tr *transport) error) error {
	if rc.closed.Load() {
		return ErrClientClosed
	}
	var last error = ErrNoConn
	back := retryBackoff
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			rc.retries.Add(1)
			d := rc.jitter(back)
			if !deadline.IsZero() && time.Now().Add(d).After(deadline) {
				// Sleeping would land past the deadline: the retry is
				// already lost, report the attempt that got furthest.
				return last
			}
			select {
			case <-rc.quit:
				return ErrClientClosed
			case <-time.After(d):
			}
			back = min(2*back, retryBackoffMax)
		}
		tr, sl := rc.pick()
		if tr == nil {
			last = ErrNoConn
			continue
		}
		err := call(tr)
		if err == nil {
			if sl.expStreak.Load() != 0 {
				sl.expStreak.Store(0)
			}
			return nil
		}
		last = err
		switch {
		case isTransport(err):
			// The connection died under this request; its fate is
			// unknown, so condemn the connection and try another.
			rc.markBroken(sl, tr)
		case errors.Is(err, ErrRetry):
			// Explicit server shed: the retry budget exists for this.
		case errors.Is(err, ErrExpired):
			rc.noteExpired(sl, tr)
			return err
		default:
			// Definitive answer (unknown tenant, server error, short
			// buffer): retrying cannot change it.
			return err
		}
	}
	return last
}

// isTransport reports errors that condemn a connection rather than the
// request: the wire died (ErrConnLost) or the pooled client was closed
// under us by a concurrent markBroken.
func isTransport(err error) bool {
	return errors.Is(err, ErrConnLost) || errors.Is(err, ErrClientClosed)
}

// pick round-robins over live slots. A one-connection pool has nothing to
// rotate, so it skips the counter.
func (rc *ResilientClient) pick() (*transport, *rslot) {
	n := len(rc.slots)
	if n == 1 {
		sl := rc.slots[0]
		if cl := sl.cl.Load(); cl != nil {
			return cl, sl
		}
		return nil, nil
	}
	start := int(rc.next.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		sl := rc.slots[(start+i)%n]
		if cl := sl.cl.Load(); cl != nil {
			return cl, sl
		}
	}
	return nil, nil
}

// markBroken swaps a condemned connection out of its slot and starts the
// repair loop. The CAS makes condemnation single-winner: concurrent
// callers seeing the same dead client race to nil it, and only the winner
// closes and repairs.
func (rc *ResilientClient) markBroken(sl *rslot, cl *transport) {
	if !sl.cl.CompareAndSwap(cl, nil) {
		return
	}
	go cl.Close()
	rc.spawnRepair(sl)
}

// noteExpired advances a slot's consecutive-expiry streak; at
// expireStreak the connection is condemned as blackholed — an open-but-
// silent connection yields no transport error, so the streak is the only
// crossing signal.
func (rc *ResilientClient) noteExpired(sl *rslot, cl *transport) {
	if sl.expStreak.Add(1) >= expireStreak {
		sl.expStreak.Store(0)
		rc.markBroken(sl, cl)
	}
}

// spawnRepair starts a slot's repair loop unless one is already running
// or the client is closed. The closed check and WaitGroup add share the
// shutdown mutex so a repair can never start after Close began waiting.
func (rc *ResilientClient) spawnRepair(sl *rslot) {
	if !sl.repairing.CompareAndSwap(false, true) {
		return
	}
	rc.smu.Lock()
	if rc.closed.Load() {
		rc.smu.Unlock()
		sl.repairing.Store(false)
		return
	}
	rc.repairs.Add(1)
	rc.smu.Unlock()
	go rc.repair(sl)
}

// repair redials a slot under jittered exponential backoff until it
// succeeds or the client closes. The first dial happens immediately — the
// common failure is a server restart measured in milliseconds.
func (rc *ResilientClient) repair(sl *rslot) {
	defer rc.repairs.Done()
	defer sl.repairing.Store(false)
	back := reconnectBackoff
	for {
		if rc.closed.Load() {
			return
		}
		cl, err := dial(rc.addr, rc.cfg.Client)
		if err == nil {
			sl.expStreak.Store(0)
			sl.cl.Store(cl)
			rc.reconnects.Add(1)
			if rc.closed.Load() {
				// Close ran while we were dialing; don't leak the fresh
				// connection past it.
				if c := sl.cl.Swap(nil); c != nil {
					c.Close()
				}
			}
			return
		}
		select {
		case <-rc.quit:
			return
		case <-time.After(rc.jitter(back)):
		}
		back = min(2*back, reconnectBackoffMax)
	}
}

// breakerFor returns (creating on first use) the tenant's breaker. A
// one-entry MRU cache serves the common single-tenant-per-client case
// without touching the map lock.
func (rc *ResilientClient) breakerFor(tenant string) *breaker {
	if b := rc.lastBk.Load(); b != nil && b.tenant == tenant {
		return b
	}
	rc.bmu.RLock()
	b := rc.breakers[tenant]
	rc.bmu.RUnlock()
	if b == nil {
		rc.bmu.Lock()
		if b = rc.breakers[tenant]; b == nil {
			b = newBreaker(tenant)
			rc.breakers[tenant] = b
		}
		rc.bmu.Unlock()
	}
	rc.lastBk.Store(b)
	return b
}

// jitter draws uniformly from [d/2, d).
func (rc *ResilientClient) jitter(d time.Duration) time.Duration {
	rc.rmu.Lock()
	f := rc.rng.Float64()
	rc.rmu.Unlock()
	return d/2 + time.Duration(f*float64(d/2))
}

// ---------------------------------------------------------------------------
// artifact control plane
//
// Artifact ops ride the same retry ladder as queries. They are idempotent
// by contract (generation-addressed reads, replay-idempotent installs), so
// retrying after an unknown-fate transport failure is safe.

// StatArtifact asks the server for key's current registry generation.
// ok=false means the key has no committed generation.
func (rc *ResilientClient) StatArtifact(key string) (gen uint64, ok bool, err error) {
	err = rc.attempts(time.Time{}, func(tr *transport) (e error) {
		_, gen, ok, e = tr.artCall(frameArtFetch, key, 0, FlagArtStat, nil)
		return e
	})
	return gen, ok, err
}

// FetchArtifact pulls key's artifact at generation gen (0 = newest);
// ok=false means no such key/generation, and the returned bytes are
// caller-owned. ResilientConfig.Client.MaxFrame must admit artifact-sized
// responses (DefaultMaxArtifactFrame).
func (rc *ResilientClient) FetchArtifact(key string, gen uint64) (data []byte, actual uint64, ok bool, err error) {
	err = rc.attempts(time.Time{}, func(tr *transport) (e error) {
		data, actual, ok, e = tr.artCall(frameArtFetch, key, gen, 0, nil)
		return e
	})
	return data, actual, ok, err
}

// PushArtifact installs data as generation gen of key on the server. A
// nil data with gen 0 is a cold placement request: the server creates the
// key's tenant without an artifact.
func (rc *ResilientClient) PushArtifact(key string, gen uint64, data []byte) error {
	var flags byte
	if data == nil {
		flags = FlagArtCold
	}
	return rc.attempts(time.Time{}, func(tr *transport) error {
		_, _, _, err := tr.artCall(frameArtPush, key, gen, flags, data)
		return err
	})
}
