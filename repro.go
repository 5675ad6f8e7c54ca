// Package repro is the public facade of the Learning Everywhere
// reproduction (Fox et al., IPPS 2019): pervasive machine learning for
// effective high-performance computation. It re-exports the core
// MLaroundHPC framework — simulation Oracles, UQ-gated Surrogates, the
// effective-performance ledger, active learning, autotuning and MLControl
// — while the simulation substrates live in internal packages and are
// exercised through the examples, the cmd/learnhpc experiment driver and
// the top-level benchmarks.
//
// Quick start:
//
//	oracle := repro.OracleFunc{In: 2, Out: 1, F: mySimulation}
//	fac := repro.NewNNSurrogateFactory(2, 1, []int{30, 48}, 0.1, rng, nil)
//	w := repro.NewShardedWrapper(oracle, fac, repro.ShardedConfig{Shards: 1, UQThreshold: 0.05})
//	y, src, uq, err := w.Query(x) // simulation first, surrogate once trusted
//	res, err := w.QueryBatch(xs)  // amortized batched serving, concurrency-safe
//	fmt.Println(w.Ledger().EffectiveSpeedup(1))
//
// Every fit trains a fresh factory surrogate in the background and
// publishes it with an atomic swap, so refits never stall readers;
// w.Pretrain(design) or w.Wait() is the train-then-serve form. Under
// heavy traffic, more shards partition the input space, each with its
// own surrogate, and oracle fallbacks fan out over a worker pool:
//
//	sw := repro.NewShardedWrapper(oracle, fac, repro.ShardedConfig{
//		Shards: 8, UQThreshold: 0.05, RetrainEvery: 200, OracleWorkers: 8,
//	})
//	sw.StartAutoRefit(30 * time.Second) // timer-driven background refresh
//
// High-QPS streams of independent single-point queries go through Serve:
// an adaptive micro-batch coalescer gathers concurrent Query calls into
// fused batches (dual trigger: batch size or an arrival-rate-tuned
// deadline) so each point costs what a batched row costs:
//
//	h := repro.Serve(sw, repro.CoalescerConfig{})
//	defer h.Close()
//	res, err := h.Query(x) // concurrent callers coalesce automatically
//
// A process serving many surrogates — the paper's "learning everywhere"
// shape, with an ML model at every layer of the workload — consolidates
// them behind one Fleet: a named-tenant registry of per-model coalescers
// over shared dispatch machinery, with bounded per-tenant admission
// (overload sheds with ErrTenantOverloaded), graceful
// Register/Deregister lifecycle, panic containment and per-tenant
// serving stats. The steady-state fleet query path
// (QueryInto) is allocation-free:
//
//	fl := repro.NewFleet(repro.FleetConfig{})
//	defer fl.Close()
//	fl.Register("potential", potWrapper)
//	fl.Register("tissue", tissueWrapper)
//	res, err := fl.Query("potential", x)
//	for name, st := range fl.Stats() { fmt.Println(name, st.QPS, st.P99) }
//
// Batch-driving callers (simulation sweeps) reuse one result slice with
// QueryBatchInto, which serves the whole batch through the surrogate's
// compiled batch program at zero steady-state allocations; Retention
// bounds the training window so refits stay O(window) on long-running
// servers:
//
//	cfg.Retention = repro.Retention{Policy: repro.RetainWindow, MaxSamples: 4096}
//	res := make([]repro.BatchResult, xs.Rows)
//	for { err := w.QueryBatchInto(xs, res); ... } // 0 allocs/iteration
package repro

import (
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/netserve"
	"repro/internal/registry"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Core framework types, re-exported.
type (
	// Oracle is a simulation: the expensive ground truth.
	Oracle = core.Oracle
	// OracleFunc adapts a function into an Oracle.
	OracleFunc = core.OracleFunc
	// Surrogate is a trainable, uncertainty-aware stand-in for an Oracle:
	// Train, Trained, and one batch prediction into caller-owned matrices.
	Surrogate = core.Surrogate
	// BatchResult is one row's answer from ShardedWrapper.QueryBatch.
	BatchResult = core.BatchResult
	// NNSurrogate is the reference MC-dropout MLP surrogate.
	NNSurrogate = core.NNSurrogate
	// ShardedWrapper is the MLaroundHPC runtime (UQ-gated
	// surrogate-or-simulate): input-space shards — one shard is the
	// unsharded wrapper — double-buffered surrogates published by atomic
	// swap, and bounded parallel oracle fan-out.
	ShardedWrapper = core.ShardedWrapper
	// ShardedConfig tunes the wrapper.
	ShardedConfig = core.ShardedConfig
	// Router assigns input points to shards.
	Router = core.Router
	// HashRouter partitions by a (optionally quantized) coordinate hash.
	HashRouter = core.HashRouter
	// KDRouter buckets along one input dimension by cut points.
	KDRouter = core.KDRouter
	// SurrogateFactory builds fresh surrogates for double-buffered refits.
	SurrogateFactory = core.SurrogateFactory
	// ShardStatus is one shard's serving-staleness report.
	ShardStatus = core.ShardStatus
	// Retention bounds the retained training window so refits stay
	// O(window) on long-running servers (zero value retains everything).
	Retention = core.Retention
	// RetentionPolicy selects how samples beyond the window are retired.
	RetentionPolicy = core.RetentionPolicy
	// Coalescer is the adaptive micro-batch serving front-end: concurrent
	// queries gather into fused batches for a Backend's QueryBatchInto.
	Coalescer = serve.Coalescer
	// CoalescerConfig tunes the coalescer (zero value = defaults).
	CoalescerConfig = serve.Config
	// CoalescedResult is one coalesced query's answer.
	CoalescedResult = serve.Result
	// ServeBackend is the engine a Coalescer (and a Fleet tenant) drives
	// through its zero-alloc QueryBatchInto; ShardedWrapper implements it.
	ServeBackend = serve.Backend
	// BatchPool recycles coalescer batch state; a fleet's tenants share one.
	BatchPool = serve.BatchPool
	// Fleet is the multi-tenant serving registry: many named surrogate
	// backends behind per-tenant coalescers with shared dispatch
	// machinery, bounded admission and per-tenant stats.
	Fleet = fleet.Fleet
	// FleetConfig tunes a Fleet (zero value = defaults).
	FleetConfig = fleet.Config
	// TenantStats is one fleet tenant's serving snapshot.
	TenantStats = fleet.TenantStats
	// Ledger is the effective-performance accounting record.
	Ledger = core.Ledger
	// Source tells which path answered a query.
	Source = core.Source
	// Autotuner implements MLautotuning.
	Autotuner = core.Autotuner
	// Controller implements MLControl acquisition.
	Controller = core.Controller
	// Interface enumerates the paper's six ML↔HPC interaction modes.
	Interface = core.Interface
	// Rand is the reproducible splittable RNG used throughout.
	Rand = xrand.Rand
	// Matrix is the dense row-major matrix batches and training sets use
	// (re-exported so facade consumers can build QueryBatch/Train inputs).
	Matrix = tensor.Matrix
)

// Query sources.
const (
	FromSimulation = core.FromSimulation
	FromSurrogate  = core.FromSurrogate
)

// Training-set retention policies.
const (
	// RetainAll keeps every sample (the unbounded default).
	RetainAll = core.RetainAll
	// RetainWindow keeps the most recent MaxSamples samples.
	RetainWindow = core.RetainWindow
)

// The paper's taxonomy (§I).
const (
	HPCrunsML           = core.HPCrunsML
	SimulationTrainedML = core.SimulationTrainedML
	MLautotuning        = core.MLautotuning
	MLafterHPC          = core.MLafterHPC
	MLaroundHPC         = core.MLaroundHPC
	MLControl           = core.MLControl
)

// NewRand returns a deterministic splittable generator.
func NewRand(seed uint64) *Rand { return xrand.New(seed) }

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix { return tensor.NewMatrix(rows, cols) }

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix { return tensor.FromRows(rows) }

// NewNNSurrogate builds the reference surrogate for an in→out mapping with
// the given hidden widths and dropout rate.
func NewNNSurrogate(in, out int, hidden []int, dropout float64, rng *Rand) *NNSurrogate {
	return core.NewNNSurrogate(in, out, hidden, dropout, rng)
}

// NewShardedWrapper wraps an oracle with UQ-gated, sharded,
// double-buffered surrogates: retraining never stalls serving (see
// ShardedWrapper). ShardedConfig{Shards: 1} is the unsharded wrapper.
func NewShardedWrapper(oracle Oracle, factory SurrogateFactory, cfg ShardedConfig) *ShardedWrapper {
	return core.NewShardedWrapper(oracle, factory, cfg)
}

// NewNNSurrogateFactory returns a factory of independently seeded
// reference NN surrogates for use with NewShardedWrapper.
func NewNNSurrogateFactory(in, out int, hidden []int, dropout float64, rng *Rand, configure func(*NNSurrogate)) SurrogateFactory {
	return core.NewNNSurrogateFactory(in, out, hidden, dropout, rng, configure)
}

// Serve wraps a serving backend (a ShardedWrapper) in an
// adaptive micro-batch Coalescer: many concurrent single-point Query
// calls are gathered into fused batches, so each point pays the batched
// per-row cost instead of the full per-call dispatch cost. Close the
// returned handle to drain gracefully.
func Serve(backend ServeBackend, cfg CoalescerConfig) *Coalescer {
	return serve.NewCoalescer(backend, cfg)
}

// NewFleet builds an empty multi-tenant serving fleet: Register named
// backends (ShardedWrapper) and query them by name; every
// tenant's coalescer draws on one shared batch pool, admission is
// bounded per tenant, and Close drains every tenant gracefully.
func NewFleet(cfg FleetConfig) *Fleet { return fleet.New(cfg) }

// KDCutsFromSamples returns ascending equal-mass cut points along
// dimension dim of the sample distribution, ready to feed a KDRouter —
// the auto-tuned alternative to hand-placed shard cuts.
func KDCutsFromSamples(samples *Matrix, dim, shards int) []float64 {
	return core.KDCutsFromSamples(samples, dim, shards)
}

// ErrServeClosed is returned by Coalescer.Query after Close.
var ErrServeClosed = serve.ErrClosed

// Fleet lifecycle and admission errors, re-exported.
var (
	// ErrFleetClosed is returned by fleet calls after Fleet.Close.
	ErrFleetClosed = fleet.ErrClosed
	// ErrUnknownTenant is returned for names no tenant currently holds.
	ErrUnknownTenant = fleet.ErrUnknownTenant
	// ErrDuplicateTenant is returned when registering an existing name.
	ErrDuplicateTenant = fleet.ErrDuplicateTenant
	// ErrTenantOverloaded is returned when a tenant's bounded in-flight
	// admission window is full — the fleet's only overload lever: it sheds
	// the row and never serves one the UQ gate would send to the oracle.
	// Sheds carry a *TenantOverloadedError, so match with errors.Is (the
	// sentinel compares by identity only).
	ErrTenantOverloaded = fleet.ErrOverloaded
)

// TenantOverloadedError is the typed admission-shed error: errors.As
// recovers which tenant shed the query; errors.Is matches it against
// ErrTenantOverloaded.
type TenantOverloadedError = fleet.OverloadedError

// Wire serving, re-exported from internal/netserve: a TCP server/client
// pair speaking a length-prefixed binary protocol whose server decodes
// straight into pooled buffers feeding the fleet's per-tenant coalescers,
// so micro-batches gather across connections. The steady-state path is
// allocation-free on both ends (WireResilientClient.QueryInto with reused
// buffers).
type (
	// WireServer serves a Fleet over TCP.
	WireServer = netserve.Server
	// WireServerConfig tunes a WireServer (Fleet is required).
	WireServerConfig = netserve.Config
	// WireServerStats is the server-wide wire counter snapshot.
	WireServerStats = netserve.Stats
	// WireClientConfig tunes each pooled connection of a
	// WireResilientClient (WireResilientConfig.Client): frame cap, flush
	// spins and dialer.
	WireClientConfig = netserve.ClientConfig
	// WireResult is one wire query's answer.
	WireResult = netserve.WireResult
	// WireRemoteError transports a server-side serving error's message.
	WireRemoteError = netserve.RemoteError
	// WireHealth is the HTTP health/readiness/stats handler of a served
	// fleet (GET /healthz, /readyz, /statsz).
	WireHealth = netserve.Health
	// LatencyHist is the log-linear latency histogram the wire loadtest
	// and benchmarks record into, and the one the fleet's P50/P99 read;
	// Record is safe from many goroutines at once.
	LatencyHist = stats.Hist
	// WireResilientClient is the wire client: a pool of multiplexed
	// connections with automatic reconnect, deadline-aware retries and
	// per-tenant circuit breaking. Any number of goroutines may query it
	// concurrently.
	WireResilientClient = netserve.ResilientClient
	// WireResilientConfig sizes a WireResilientClient's pool and tunes its
	// connections; the retry, reconnect and circuit-breaker figures are
	// fixed (see README "Failure model").
	WireResilientConfig = netserve.ResilientConfig
	// WireResilientStats snapshots a resilient client's failure counters.
	WireResilientStats = netserve.ResilientStats
	// WireCircuitOpenError names the tenant an open breaker shed; match
	// with errors.Is against ErrWireCircuitOpen.
	WireCircuitOpenError = netserve.CircuitOpenError
)

// Wire status errors, re-exported. A WireResilientClient maps every non-OK
// response status to one of these sentinels (or a *WireRemoteError).
var (
	// ErrWireRetry is an admission shed crossing the wire: back off and
	// retry (the wire form of ErrTenantOverloaded).
	ErrWireRetry = netserve.ErrRetry
	// ErrWireExpired reports a request whose deadline passed before the
	// server admitted it.
	ErrWireExpired = netserve.ErrExpired
	// ErrWireUnknownTenant is the wire form of ErrUnknownTenant.
	ErrWireUnknownTenant = netserve.ErrUnknownTenant
	// ErrWireClientClosed is returned once a WireResilientClient is closed.
	ErrWireClientClosed = netserve.ErrClientClosed
	// ErrWireServerClosed is returned by WireServer.Serve after Close.
	ErrWireServerClosed = netserve.ErrServerClosed
	// ErrWireConnLost is the transport-failure sentinel: the connection
	// died under an in-flight query, fate unknown. Retried on another
	// connection; surfaces only once the retry budget is spent.
	ErrWireConnLost = netserve.ErrConnLost
	// ErrWireNoConn is returned while every pooled connection of a
	// WireResilientClient is down and reconnecting.
	ErrWireNoConn = netserve.ErrNoConn
	// ErrWireCircuitOpen matches queries shed by an open per-tenant
	// circuit breaker (the concrete error is a *WireCircuitOpenError).
	ErrWireCircuitOpen = netserve.ErrCircuitOpen
)

// NewWireServer builds a TCP wire server over cfg.Fleet; run Serve (or
// ListenAndServe) in a goroutine and Close to drain.
func NewWireServer(cfg WireServerConfig) *WireServer { return netserve.NewServer(cfg) }

// DialWireResilient builds the wire client — a connection pool — against a
// WireServer or WireRouter. Connections that fail to dial repair in the background;
// only a fully failed pool returns an error.
func DialWireResilient(addr string, cfg WireResilientConfig) (*WireResilientClient, error) {
	return netserve.DialResilient(addr, cfg)
}

// Crash-safe artifact registry, re-exported from internal/registry: a
// versioned on-disk store of surrogate artifacts with atomic
// torn-write-proof publishes, checksum-verified zero-copy (mmap) opens,
// quarantine of corrupt generations, and rollback. Bind a fleet tenant
// with Fleet.BindRegistry to warm-start it from its newest durable
// generation (zero retraining), persist every generation it publishes,
// and auto-roll-back drift regressions.
type (
	// Registry is the crash-safe versioned artifact store.
	Registry = registry.Registry
	// RegistryConfig configures OpenRegistry (Dir is required).
	RegistryConfig = registry.Config
	// RegistryStats snapshots publish/rollback/quarantine/open counters.
	RegistryStats = registry.Stats
	// RegistryHandle is one opened artifact generation.
	RegistryHandle = registry.Handle
	// FleetRegistryConfig binds one fleet tenant to a Registry (see
	// Fleet.BindRegistry).
	FleetRegistryConfig = fleet.RegistryConfig
)

// Registry errors, re-exported.
var (
	// ErrRegistryNotFound reports a name with no servable generation.
	ErrRegistryNotFound = registry.ErrNotFound
	// ErrRegistryNoPredecessor reports a rollback with nowhere to go.
	ErrRegistryNoPredecessor = registry.ErrNoPredecessor
)

// OpenRegistry opens (creating if needed) a crash-safe artifact registry
// rooted at cfg.Dir.
func OpenRegistry(cfg RegistryConfig) (*Registry, error) { return registry.Open(cfg) }

// RegistryShardKey names the artifact under which tenant's shard si is
// published ("tenant/shard-si") — the key scheme Fleet.BindRegistry and
// the dispatch tier's artifact mirror agree on.
func RegistryShardKey(tenant string, si int) string { return registry.ShardKey(tenant, si) }

// Multi-process dispatch tier, re-exported from internal/router: a
// wire-compatible frontend that places tenants across N worker processes
// by consistent hashing and splices raw frames between client and owner
// without ever decoding a row. Worker death rehashes only the dead
// worker's tenants, answers their in-flight requests with explicit Retry
// frames, and warm-starts the new owners from the router's mirrored
// artifact registry — failover without retraining.
type (
	// WireRouter is the dispatch-tier frontend (see NewWireRouter).
	WireRouter = router.Router
	// WireRouterConfig configures NewWireRouter (Workers is required).
	WireRouterConfig = router.Config
	// WireRouterStats snapshots the router's forwarding/placement counters.
	WireRouterStats = router.Stats
	// RouterWorkerHooks is the worker-process side: wire it into a
	// WireServerConfig's Artifacts and Install hooks so the worker serves
	// registry fetches and accepts placement pushes.
	RouterWorkerHooks = router.WorkerHooks
	// FleetPlacement records how a routed tenant landed on this process
	// (cold vs warm-started, and from which registry generation).
	FleetPlacement = fleet.Placement
)

// NewWireRouter builds the dispatch tier over cfg.Workers and dials them.
func NewWireRouter(cfg WireRouterConfig) (*WireRouter, error) { return router.New(cfg) }

// EffectiveSpeedup evaluates the paper's §III-D formula.
func EffectiveSpeedup(tseq, ttrain, tlearn, tlookup, nlookup, ntrain float64) float64 {
	return core.EffectiveSpeedup(tseq, ttrain, tlearn, tlookup, nlookup, ntrain)
}
