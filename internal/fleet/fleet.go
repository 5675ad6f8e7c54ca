// Package fleet implements the multi-tenant serving front-end: one
// dispatch plane for every surrogate in the process. The paper's
// "learning everywhere" thesis puts an ML surrogate at every layer of an
// HPC workload — potentials, tissue stencils, epidemic calibrators — and
// each of those models wants the same serving machinery: micro-batch
// coalescing, UQ-gated fallback, background refits. A Fleet serves many
// named tenants (each a serve.Backend) behind per-tenant coalescers that
// share one recycled batch pool, with a single lifecycle
// (Register/Deregister/Close with graceful per-tenant drain), per-tenant
// admission control (a bounded in-flight count, so one hot model's
// traffic spike cannot starve the rest), fault containment (a panicking
// tenant backend surfaces as that tenant's error, never a process crash)
// and per-tenant serving stats (QPS, mean batch width, latency
// percentiles, refit staleness).
//
// Admission shedding is the fleet's only overload lever: a query beyond
// its tenant's in-flight bound fails fast with ErrOverloaded. Every
// admitted row is served at the fidelity its backend's UQ gate certifies;
// overload never buys headroom by loosening the gate.
//
// The steady-state query path — tenant lookup, admission, coalesced
// dispatch through the backend's QueryBatchInto, latency recording — is
// allocation-free via QueryInto, so consolidating N per-workload
// pipelines into one fleet costs nothing per query over fronting a
// single model.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// Fleet lifecycle and admission errors.
var (
	// ErrClosed is returned by Register and the query paths after Close.
	ErrClosed = errors.New("fleet: closed")
	// ErrUnknownTenant is returned when no tenant has the given name —
	// including tenants deregistered while the query was in flight.
	ErrUnknownTenant = errors.New("fleet: unknown tenant")
	// ErrDuplicateTenant is returned by Register for a name already served.
	ErrDuplicateTenant = errors.New("fleet: tenant already registered")
	// ErrOverloaded is returned when a tenant's bounded in-flight
	// admission window is full; the caller should back off (the bound is
	// what keeps one hot tenant from monopolizing the process). The
	// concrete error is an *OverloadedError naming the shedding tenant;
	// match with errors.Is(err, ErrOverloaded).
	ErrOverloaded = errors.New("fleet: tenant over its in-flight bound")
)

// OverloadedError is the concrete admission-shed error: it names the
// tenant whose in-flight window was full, so a multi-tenant front-end
// (the wire layer) can report which tenant shed without string parsing.
// It matches the ErrOverloaded sentinel through errors.Is, keeping every
// pre-existing errors.Is(err, ErrOverloaded) check working.
type OverloadedError struct {
	Tenant string
}

func (e *OverloadedError) Error() string {
	return "fleet: tenant " + strconv.Quote(e.Tenant) + " over its in-flight bound"
}

// Is reports sentinel equivalence with ErrOverloaded.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// Config tunes a Fleet. The zero value selects the defaults.
type Config struct {
	// Coalescer is the per-tenant coalescer configuration (zero value =
	// serve defaults). Its Pool field is ignored: every tenant draws from
	// the fleet's shared batch pool.
	Coalescer serve.Config
	// MaxInFlight bounds each tenant's concurrently admitted queries
	// (default 4× the coalescer MaxBatch). Queries beyond the bound fail
	// fast with ErrOverloaded instead of queueing without limit.
	MaxInFlight int
}

func (c *Config) fill() {
	if c.MaxInFlight <= 0 {
		mb := c.Coalescer.MaxBatch
		if mb <= 0 {
			mb = 64
		}
		c.MaxInFlight = 4 * mb
	}
}

// latencyWindow is how many recent per-query latencies each tenant retains
// for the percentile stats. A power of two, so the ring index is a mask.
const latencyWindow = 1024

// tenant is one registered backend: its coalescer plus admission and
// stats state. All counters are atomics so the query path takes no
// tenant lock.
type tenant struct {
	name    string
	backend serve.Backend
	co      *serve.Coalescer
	limit   int64
	// overErr is the tenant's preallocated admission-shed error, so the
	// shed path (which a saturated caller hits in a hot retry loop) stays
	// allocation-free.
	overErr *OverloadedError

	inflight atomic.Int64
	rejected atomic.Int64
	expired  atomic.Int64
	queries  atomic.Int64
	panics   atomic.Int64

	// binding is the tenant's live registry attachment (nil when
	// unbound); see BindRegistry.
	binding atomic.Pointer[registryBinding]

	// placement is how the tenant landed on this process (nil until a
	// dispatch tier records one); see SetPlacement.
	placement atomic.Pointer[Placement]

	// lats is a ring of recent query latencies (ns), written with atomic
	// stores so Stats can read concurrently.
	lats   [latencyWindow]int64
	latPos atomic.Uint64

	// QPS sampling window (Stats-call to Stats-call).
	statsMu sync.Mutex
	lastAt  time.Time
	lastQ   int64
}

// observeN counts n completed queries against one shared latency sample:
// per-row clock reads would cost more than the dispatch they measure, and
// a burst's rows genuinely share their batch's latency. The latency store
// lands before the query-count increment (and is clamped to ≥1ns) so a
// percentile reader sizing its sample by the counter and skipping zero
// slots never mistakes an unwritten slot for a datum.
func (t *tenant) observeN(d time.Duration, n int64) {
	if d <= 0 {
		d = 1
	}
	i := (t.latPos.Add(1) - 1) & (latencyWindow - 1)
	atomic.StoreInt64(&t.lats[i], int64(d))
	t.queries.Add(n)
}

// Fleet is the multi-tenant serving registry. All methods are safe for
// concurrent use; Query/QueryInto are safe to call concurrently with
// Register, Deregister and Close (a query racing a Deregister of its own
// tenant completes or fails with ErrUnknownTenant — never hangs).
type Fleet struct {
	cfg  Config
	pool *serve.BatchPool

	mu      sync.RWMutex
	tenants map[string]*tenant
	closed  bool
}

// New builds an empty fleet.
func New(cfg Config) *Fleet {
	cfg.fill()
	return &Fleet{
		cfg:     cfg,
		pool:    serve.NewBatchPool(),
		tenants: make(map[string]*tenant),
	}
}

// Register adds a named tenant served by backend behind a fresh coalescer
// drawing on the fleet's shared batch pool, with the fleet's default
// coalescer configuration.
func (f *Fleet) Register(name string, backend serve.Backend) error {
	return f.RegisterWithConfig(name, backend, f.cfg.Coalescer)
}

// Backend returns the named tenant's registered backend — the hook a
// dispatch-tier worker uses to install pushed artifacts into the live
// wrapper.
func (f *Fleet) Backend(name string) (serve.Backend, error) {
	t := f.lookup(name)
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return t.backend, nil
}

// Placement records how a tenant landed on this process: provisioned at
// boot, placed cold by a dispatch tier, or warm-started from artifacts
// pushed over the wire.
type Placement struct {
	// Source is the placement origin: "boot", "cold", "warm" — or any
	// label the placing tier chooses.
	Source string
	// Generation is the newest registry generation installed at
	// placement time (zero for cold placements).
	Generation uint64
	// WarmShards counts shards that warm-started from an artifact.
	WarmShards int
	// At is the placement instant.
	At time.Time
}

// SetPlacement records the tenant's placement metadata, surfaced
// through TenantStats (and from there /statsz).
func (f *Fleet) SetPlacement(name string, p Placement) error {
	t := f.lookup(name)
	if t == nil {
		return fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	if p.At.IsZero() {
		p.At = time.Now()
	}
	t.placement.Store(&p)
	return nil
}

// RegisterWithConfig is Register with a per-tenant coalescer
// configuration (a latency-sensitive tenant can run a smaller MaxBatch
// than its batch-hungry neighbours). The configuration's Pool field is
// overridden with the fleet's shared pool.
func (f *Fleet) RegisterWithConfig(name string, backend serve.Backend, cfg serve.Config) error {
	if backend == nil {
		return errors.New("fleet: nil backend")
	}
	cfg.Pool = f.pool
	t := &tenant{
		name:    name,
		backend: backend,
		co:      serve.NewCoalescer(backend, cfg),
		limit:   int64(f.cfg.MaxInFlight),
		overErr: &OverloadedError{Tenant: name},
		lastAt:  time.Now(),
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if _, dup := f.tenants[name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateTenant, name)
	}
	f.tenants[name] = t
	return nil
}

// Deregister removes a tenant and drains it gracefully: queries already
// admitted (including those mid-gather in its coalescer) are served to
// completion before Deregister returns; concurrent queries that lose the
// race fail with ErrUnknownTenant. The backend itself is not touched —
// it belongs to the caller.
func (f *Fleet) Deregister(name string) error {
	f.mu.Lock()
	t := f.tenants[name]
	if t == nil {
		closed := f.closed
		f.mu.Unlock()
		if closed {
			return ErrClosed
		}
		return fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	delete(f.tenants, name)
	f.mu.Unlock()
	err := t.co.Close()
	if b := t.binding.Swap(nil); b != nil {
		b.close()
	}
	return err
}

// Close deregisters every tenant, draining each coalescer, and marks the
// fleet closed: subsequent Register and query calls fail. Idempotent.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	ts := make([]*tenant, 0, len(f.tenants))
	for _, t := range f.tenants {
		ts = append(ts, t)
	}
	f.tenants = make(map[string]*tenant)
	f.mu.Unlock()
	for _, t := range ts {
		t.co.Close()
		if b := t.binding.Swap(nil); b != nil {
			b.close()
		}
	}
	return nil
}

// Tenants returns the sorted names of the registered tenants.
func (f *Fleet) Tenants() []string {
	f.mu.RLock()
	names := make([]string, 0, len(f.tenants))
	for name := range f.tenants {
		names = append(names, name)
	}
	f.mu.RUnlock()
	sort.Strings(names)
	return names
}

// lookup resolves a tenant name; nil means unknown (or closed).
func (f *Fleet) lookup(name string) *tenant {
	f.mu.RLock()
	t := f.tenants[name]
	f.mu.RUnlock()
	return t
}

// goneErr is why a query found no tenant to serve it: ErrClosed after
// Close, ErrUnknownTenant otherwise.
func (f *Fleet) goneErr() error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return ErrClosed
	}
	return ErrUnknownTenant
}

// Query submits one input point to the named tenant and blocks until its
// micro-batch has been served. The returned Y/Std slices are
// caller-owned. A panicking tenant backend is contained: the panic
// surfaces as this tenant's error, not a process crash.
func (f *Fleet) Query(name string, x []float64) (serve.Result, error) {
	return f.QueryInto(name, x, nil, nil)
}

// QueryInto is the allocation-free form of Query — a burst of one through
// QueryRows: the answer is copied into y (and, for surrogate answers,
// std), which must each hold the tenant's output dimensionality (both
// nil: a fresh array, which is Query). A steady-state caller reusing its
// buffers performs zero heap allocations per query.
func (f *Fleet) QueryInto(name string, x, y, std []float64) (res serve.Result, err error) {
	qerr := f.QueryRows(name, [][]float64{x}, nil, func(_ int, r serve.Result, rerr error) {
		if res, err = r.CopyOut(y, std); rerr != nil {
			err = rerr
		}
	})
	if qerr != nil {
		return serve.Result{}, qerr
	}
	return res, err
}

// QueryRows is the burst dispatch path: a contiguous run of rows for one
// tenant — a wire read that drained several frames, a worker with a
// backlog — submitted with a single tenant lookup, a single admission
// round and one coalescer waiter instead of per-row machinery. deadlines
// carries each row's absolute unix-nano deadline (0 = none); rows already
// expired at admission are shed individually through the callback with
// context.DeadlineExceeded, rows beyond the tenant's in-flight window are
// shed with the tenant's *OverloadedError, and the survivors are enqueued
// together. The callback runs once per row, in row order; its Result
// slices alias pooled batch storage and are valid only inside the call. A
// panicking tenant backend is contained: undelivered rows receive the
// tenant's panic error, never a process crash.
func (f *Fleet) QueryRows(name string, rows [][]float64, deadlines []int64, each func(i int, res serve.Result, err error)) error {
	n := len(rows)
	if n == 0 {
		return nil
	}
	if deadlines != nil && len(deadlines) != n {
		return fmt.Errorf("fleet: %d deadlines for %d rows", len(deadlines), n)
	}
	t := f.lookup(name)
	if t == nil {
		return f.goneErr()
	}
	// Deadline shed — one clock read for the whole burst.
	live := rows
	if deadlines != nil {
		now := time.Now().UnixNano()
		expired := 0
		for _, dl := range deadlines {
			if dl != 0 && dl <= now {
				expired++
			}
		}
		if expired > 0 {
			t.expired.Add(int64(expired))
			live = make([][]float64, 0, n-expired)
			// Shed expired rows via the callback, keep the rest in order.
			kept := make([]int, 0, n-expired)
			for i, dl := range deadlines {
				if dl != 0 && dl <= now {
					each(i, serve.Result{}, context.DeadlineExceeded)
					continue
				}
				live = append(live, rows[i])
				kept = append(kept, i)
			}
			if len(live) == 0 {
				return nil
			}
			inner := each
			each = func(i int, res serve.Result, err error) { inner(kept[i], res, err) }
		}
	}
	// Admission: the burst claims as many in-flight slots as it has live
	// rows; overflow rows shed individually from the tail.
	admit := int64(len(live))
	if got := t.inflight.Add(admit); got > t.limit {
		over := got - t.limit
		if over > admit {
			over = admit
		}
		t.inflight.Add(-over)
		t.rejected.Add(over)
		keep := int(admit - over)
		for i := keep; i < len(live); i++ {
			each(i, serve.Result{}, t.overErr)
		}
		if keep == 0 {
			return nil
		}
		live = live[:keep]
		admit = int64(keep)
	}
	t0 := time.Now()
	delivered := 0
	err := func() (err error) {
		defer func() {
			if pv := recover(); pv != nil {
				// Tenant fault containment: the coalescer re-throws a backend
				// panic in exactly the affected batch's waiters; the fleet
				// converts it to this tenant's error so one broken model
				// cannot take down its neighbours' callers.
				t.panics.Add(1)
				perr := fmt.Errorf("fleet: tenant %q backend panicked: %v", t.name, pv)
				for i := delivered; i < len(live); i++ {
					each(i, serve.Result{}, perr)
				}
			}
			t.observeN(time.Since(t0), admit)
			t.inflight.Add(-admit)
		}()
		return t.co.QueryRows(live, func(i int, res serve.Result, err error) {
			delivered = i + 1
			each(i, res, err)
		})
	}()
	if errors.Is(err, serve.ErrClosed) {
		// The tenant's coalescer closed under this burst: either the whole
		// fleet shut down, or just this tenant was deregistered — in which
		// case, from the caller's view, the tenant no longer exists.
		return f.goneErr()
	}
	return err
}

// TenantStats is one tenant's serving snapshot.
type TenantStats struct {
	// Queries is the number of completed queries (admitted and served,
	// successfully or not) since registration.
	Queries int64
	// Rejected counts queries shed by the in-flight admission bound.
	Rejected int64
	// Expired counts queries shed at admission because their QueryRows
	// deadline had already passed.
	Expired int64
	// Panics counts contained backend panics.
	Panics int64
	// InFlight is the instantaneous admitted-query count.
	InFlight int64
	// QPS is the query completion rate measured over the interval since
	// the previous Stats/TenantStats call for this tenant.
	QPS float64
	// Batches and MeanBatch report the tenant's coalescing effectiveness.
	Batches   int64
	MeanBatch float64
	// P50 and P99 are latency percentiles over the tenant's recent
	// latency window (zero until the first query completes).
	P50, P99 time.Duration
	// Staleness is the total count of training samples no published model
	// has absorbed, summed across the backend's shards, for backends that
	// report per-shard status (core.ShardedWrapper); -1 otherwise.
	Staleness int
	// DriftedShards counts the backend's shards whose ingested-residual
	// EWMA has tripped the drift threshold (they owe a refit), and
	// MaxDriftRatio is the worst shard's residual-over-baseline ratio —
	// the signals a health endpoint surfaces so an orchestrator can see a
	// tenant sliding before its accuracy does. Both stay zero for
	// backends without per-shard status.
	DriftedShards int
	MaxDriftRatio float64
	// QuantQueries counts lookups the backend served through int8
	// quantized programs, and QuantFallbacks the subset re-run on the
	// retained float program because the UQ decision sat inside the
	// quantization error band (or the input clipped the int8 envelope).
	// Both stay zero for backends without quantized serving.
	QuantQueries, QuantFallbacks uint64
	// BrownoutDowns and BrownoutUps are always zero. Their only reader is
	// the benchmark's fleet probe (benchmark/probe_fleet.go), which sums
	// them into fleet.brownout_steps; they go when that metric does.
	BrownoutDowns, BrownoutUps int64
	// RegistryGeneration is the newest artifact generation committed
	// across the tenant's registry shard keys, and RegistryPublishes /
	// RegistryRollbacks / RegistryQuarantines the registry's durability
	// counters summed over them. All zero while the tenant is not bound
	// to a registry (see BindRegistry).
	RegistryGeneration  uint64
	RegistryPublishes   int64
	RegistryRollbacks   int64
	RegistryQuarantines int64
	// PlacementSource / PlacementGeneration / PlacementWarmShards echo
	// the tenant's recorded Placement — how a dispatch tier landed it on
	// this process (empty/zero until SetPlacement).
	PlacementSource     string
	PlacementGeneration uint64
	PlacementWarmShards int
}

// statuser is the optional backend face that exposes per-shard refit
// staleness (core.ShardedWrapper implements it).
type statuser interface {
	Status() []core.ShardStatus
}

// quantStatser is the optional backend face that exposes quantized-serving
// counters (core.ShardedWrapper implements it).
type quantStatser interface {
	QuantStats() (queries, fallbacks uint64)
}

// snapshot assembles the tenant's stats.
func (t *tenant) snapshot() TenantStats {
	cs := t.co.Stats()
	st := TenantStats{
		Queries:   t.queries.Load(),
		Rejected:  t.rejected.Load(),
		Expired:   t.expired.Load(),
		Panics:    t.panics.Load(),
		InFlight:  t.inflight.Load(),
		Batches:   cs.Batches,
		MeanBatch: cs.MeanBatch(),
		Staleness: -1,
	}
	if s, ok := t.backend.(statuser); ok {
		st.Staleness = 0
		for _, sh := range s.Status() {
			st.Staleness += sh.Stale
			if sh.Drifted {
				st.DriftedShards++
			}
			if sh.DriftRatio > st.MaxDriftRatio {
				st.MaxDriftRatio = sh.DriftRatio
			}
		}
	}
	if q, ok := t.backend.(quantStatser); ok {
		st.QuantQueries, st.QuantFallbacks = q.QuantStats()
	}
	if b := t.binding.Load(); b != nil {
		gen, rs := b.stats()
		st.RegistryGeneration = gen
		st.RegistryPublishes = rs.Publishes
		st.RegistryRollbacks = rs.Rollbacks
		st.RegistryQuarantines = rs.Quarantines
	}
	if p := t.placement.Load(); p != nil {
		st.PlacementSource = p.Source
		st.PlacementGeneration = p.Generation
		st.PlacementWarmShards = p.WarmShards
	}
	// QPS over the window since the previous snapshot.
	t.statsMu.Lock()
	now := time.Now()
	if dt := now.Sub(t.lastAt).Seconds(); dt > 0 {
		st.QPS = float64(st.Queries-t.lastQ) / dt
	}
	t.lastAt, t.lastQ = now, st.Queries
	t.statsMu.Unlock()
	st.P50, st.P99 = t.latPercentiles()
	return st
}

// latPercentiles reads the tenant's latency ring and returns its p50/p99
// (zero until the first query completes). Slots still zero — claimed by
// an in-flight observe whose store hasn't landed, or never written — are
// skipped rather than read as 0ns latencies (observe clamps real
// durations to ≥1ns).
func (t *tenant) latPercentiles() (p50, p99 time.Duration) {
	n := int64(len(t.lats))
	if q := t.queries.Load(); q < n {
		n = q
	}
	if n <= 0 {
		return 0, 0
	}
	lats := make([]int64, 0, n)
	for i := int64(0); i < n; i++ {
		if v := atomic.LoadInt64(&t.lats[i]); v > 0 {
			lats = append(lats, v)
		}
	}
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return time.Duration(lats[len(lats)/2]), time.Duration(lats[len(lats)*99/100])
}

// TenantStats returns one tenant's serving snapshot.
func (f *Fleet) TenantStats(name string) (TenantStats, error) {
	t := f.lookup(name)
	if t == nil {
		return TenantStats{}, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	return t.snapshot(), nil
}

// Stats returns every tenant's serving snapshot, keyed by name.
func (f *Fleet) Stats() map[string]TenantStats {
	f.mu.RLock()
	ts := make([]*tenant, 0, len(f.tenants))
	for _, t := range f.tenants {
		ts = append(ts, t)
	}
	f.mu.RUnlock()
	out := make(map[string]TenantStats, len(ts))
	for _, t := range ts {
		out[t.name] = t.snapshot()
	}
	return out
}
