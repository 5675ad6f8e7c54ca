package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// This file implements the MLaroundHPC runtime: the ShardedWrapper
// partitions the input space across shards (one shard is the unsharded
// runtime), gives every shard a double-buffered surrogate (train the next
// model on a snapshot while the current one serves, publish with an
// atomic pointer swap), and fans oracle fallbacks out over a bounded
// worker pool. Query and QueryBatch never block on a refit — the loop
// keeps learning from fresh oracle results without ever freezing its
// readers.

// Router assigns input points to shards. Implementations must be
// deterministic pure functions of x — the same point always lands in the
// same shard — and safe for concurrent use.
type Router interface {
	// Route returns the shard index for x, in [0, NumShards()).
	Route(x []float64) int
	// NumShards returns the shard count this router fans across.
	NumShards() int
}

// HashRouter distributes points by an FNV-1a hash of their (optionally
// quantized) coordinates: a stateless, dimension-agnostic partition that
// balances load for any input distribution.
type HashRouter struct {
	Shards int
	// Quantum, when positive, snaps each coordinate onto a grid of this
	// pitch before hashing so near-identical inputs co-locate; zero hashes
	// the raw float bits.
	Quantum float64
}

// NumShards implements Router.
func (r HashRouter) NumShards() int { return r.Shards }

// Route implements Router.
func (r HashRouter) Route(x []float64) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range x {
		if r.Quantum > 0 {
			v = math.Floor(v / r.Quantum)
		}
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= prime64
		}
	}
	return int(h % uint64(r.Shards))
}

// KDRouter buckets points along one input dimension by ascending cut
// values — the 1-level kd-partition that keeps spatially local queries on
// the same shard (and its surrogate specialized to that region). Cuts of
// length k produce k+1 shards.
type KDRouter struct {
	Dim  int
	Cuts []float64
}

// NumShards implements Router.
func (r KDRouter) NumShards() int { return len(r.Cuts) + 1 }

// Route implements Router via binary search over the cuts.
func (r KDRouter) Route(x []float64) int {
	lo, hi := 0, len(r.Cuts)
	for lo < hi {
		mid := (lo + hi) / 2
		if x[r.Dim] < r.Cuts[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// batchResiduals computes per-row mean-absolute residuals of sur's point
// predictions for the xs rows indexed by idx (nil idx = all rows) against
// their ys counterparts, through one deterministic batch pass.
func batchResiduals(sur Surrogate, xs, ys *tensor.Matrix, idx []int) []float64 {
	sub := xs
	if idx != nil {
		sub = tensor.GatherRowsInto(nil, xs, idx)
	}
	var pred tensor.Matrix
	sur.PredictInto(sub, &pred, nil)
	resids := make([]float64, sub.Rows)
	for k := range resids {
		i := k
		if idx != nil {
			i = idx[k]
		}
		resids[k] = meanAbsDiff(pred.Row(k), ys.Row(i))
	}
	return resids
}

// SurrogateFactory builds fresh, untrained surrogates. Every refit
// generation trains a brand-new instance, so a model that is serving is
// never mutated; factories must be safe to call from concurrent background
// refits.
type SurrogateFactory func() Surrogate

// NewNNSurrogateFactory returns a SurrogateFactory producing independently
// seeded NNSurrogates for an in→out mapping, each drawing its own
// deterministic rng stream split off rng. The factory owns rng from here
// on — background refits split it on their own goroutines — so a caller
// that keeps drawing from its generator passes rng.Split(). configure
// (optional) tunes every produced instance, e.g. epochs or MC passes.
func NewNNSurrogateFactory(in, out int, hidden []int, dropout float64, rng *xrand.Rand, configure func(*NNSurrogate)) SurrogateFactory {
	var mu sync.Mutex
	return func() Surrogate {
		mu.Lock()
		child := rng.Split()
		mu.Unlock()
		s := NewNNSurrogate(in, out, hidden, dropout, child)
		if configure != nil {
			configure(s)
		}
		return s
	}
}

// ShardedConfig tunes a ShardedWrapper.
type ShardedConfig struct {
	// Shards is the partition width used when Router is nil (default 4).
	Shards int
	// Router overrides the default HashRouter partition.
	Router Router
	// MinTrainSamples is the per-shard sample count before its first fit
	// (default 50).
	MinTrainSamples int
	// RetrainEvery triggers a background refit after this many new oracle
	// results per shard; 0 disables refits after the first fit.
	RetrainEvery int
	// UQThreshold is the maximum acceptable predictive std (target units)
	// for a surrogate answer to be served.
	UQThreshold float64
	// OracleWorkers bounds the fan-out pool QueryBatch and Pretrain use
	// for oracle runs (default GOMAXPROCS; 1 serializes). Oracles must
	// tolerate concurrent Run calls, the same contract querying the
	// wrapper from several goroutines already imposes.
	OracleWorkers int
	// Retention bounds each shard's retained training window (a sliding
	// window of the newest samples) so background refits stay O(window)
	// on long-running servers. The zero value retains everything. A
	// bounded window is raised to at least MinTrainSamples.
	Retention Retention
	// DriftFactor, when positive, enables drift-triggered refits: each
	// shard tracks an EWMA of its ingested samples' residuals (mean
	// absolute error of the published model's prediction against the
	// sample's true y), compared against the model's own in-sample
	// training residual recorded at publish time. When the EWMA exceeds
	// DriftFactor times that baseline, the shard is marked drifted —
	// making a refit due on the next sample arrival and on every
	// RefitStale / auto-refit tick — so the retrain schedule adapts to
	// the oracle moving instead of waiting out RetrainEvery.
	DriftFactor float64
	// DriftAlpha is the residual-EWMA smoothing factor in (0, 1]
	// (default 0.1).
	DriftAlpha float64
	// Quantized serves every shard from its surrogate's int8 quantized
	// program when the surrogate provides one (NNSurrogate with bounded
	// hidden activations). Lookups whose UQ decision lands within the
	// surrogate's QuantGateBound of UQThreshold — where the quantization
	// delta could flip accept into reject or vice versa — and lookups
	// whose input left the calibrated envelope are transparently re-run
	// on the retained float program and counted (QuantStats), so the
	// speedup never silently degrades the gate. The knob wraps the
	// factory so each Degradable surrogate it produces (including
	// every recompile-on-publish refit generation) quantizes on Train.
	Quantized bool
}

// driftBaselineRows caps how many snapshot rows the publish-time
// in-sample residual averages over.
const driftBaselineRows = 256

// shard is one partition: its slice of the training set plus the
// double-buffered surrogate. active holds the currently published model;
// refits train a fresh instance on a snapshot and swap the pointer, so
// readers load it lock-free and never observe a half-trained model.
// Snapshots are numbered per shard and publishes are ordered by snapshot
// generation, so a slow refit finishing late can never overwrite a model
// trained on a newer snapshot (e.g. by a concurrent TrainAll).
type shard struct {
	idx    int // position in ShardedWrapper.shards, for publish hooks
	active atomic.Pointer[Surrogate]

	mu            sync.Mutex // everything below
	xs, ys        *tensor.Matrix
	newSinceTrain int
	refitting     bool
	nextSnapGen   int // id assigned to the next training snapshot
	publishedGen  int // snapshot id of the published model; -1 = none

	// Drift tracking (ShardedConfig.DriftFactor): residBase is the
	// published model's in-sample training residual (the publish-time
	// baseline); residEWMA smooths fresh ingested residuals against it.
	// The EWMA exceeding DriftFactor × residBase marks the shard drifted,
	// recording in driftGen the snapshot generation that will absorb the
	// samples that raised it — so publishing a model trained on an OLDER
	// snapshot (gen < driftGen) cannot swallow the flag while the
	// drift-raising samples sit in no snapshot at all.
	residBase float64
	residEWMA float64
	drifted   bool
	driftGen  int
}

// snapshotLocked clones the shard's training set as snapshot generation
// gen and resets the retrain credit. Callers hold s.mu.
func (s *shard) snapshotLocked() (snapX, snapY *tensor.Matrix, gen, consumed int) {
	gen = s.nextSnapGen
	s.nextSnapGen++
	consumed = s.newSinceTrain
	s.newSinceTrain = 0
	return s.xs.Clone(), s.ys.Clone(), gen, consumed
}

// publishIfNewer swaps sur in as the served model unless a model from a
// newer snapshot has already been published.
func (s *shard) publishIfNewer(sur Surrogate, gen int, residBase float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen <= s.publishedGen {
		return false
	}
	s.publishedGen = gen
	s.active.Store(&sur)
	// The new model's in-sample fit error is the drift baseline its
	// serving life is judged against. The drift flag is cleared only if
	// this model's snapshot covers the samples that raised it; drift
	// tripped after the snapshot was taken survives the publish, so the
	// refit chain retrains once more instead of serving a model that
	// never saw the drifted regime.
	s.residBase, s.residEWMA = residBase, residBase
	if gen >= s.driftGen {
		s.drifted = false
	}
	return true
}

// observeResidualLocked folds one ingested sample's residual against the
// published model into the shard's drift EWMA and marks the shard
// drifted when it exceeds factor × the publish-time baseline. Callers
// hold s.mu.
func (s *shard) observeResidualLocked(resid, factor, alpha float64) {
	s.residEWMA += alpha * (resid - s.residEWMA)
	if s.residEWMA > factor*flooredBase(s.residBase) {
		s.drifted = true
		// The sample that (re-)raised the flag will be absorbed by the
		// NEXT snapshot; only a model trained on that generation (or
		// newer) may clear it — so drift tripped by samples a refit's
		// already-taken snapshot missed survives that refit's publish.
		s.driftGen = s.nextSnapGen
	}
}

// flooredBase floors the drift baseline so a perfectly fit
// (zero-residual) model still tolerates noise at the float rounding
// scale before tripping — and so the reported drift ratio of such a
// model is finite and consistent with the trip check.
func flooredBase(base float64) float64 {
	if base < 1e-12 {
		return 1e-12
	}
	return base
}

// driftBaselineFor evaluates driftBaseline only when someone consumes
// it — drift tracking is configured or a publish hook (which carries
// the baseline into registry artifacts) is installed; otherwise the
// snapshot sweep is skipped entirely.
func (w *ShardedWrapper) driftBaselineFor(sur Surrogate, snapX, snapY *tensor.Matrix) float64 {
	if w.cfg.DriftFactor <= 0 && w.publishHook.Load() == nil {
		return 0
	}
	return driftBaseline(sur, snapX, snapY)
}

// driftBaseline is the published model's in-sample residual: the mean
// absolute prediction error over (up to driftBaselineRows evenly spaced
// rows of) its own training snapshot, in one batch pass. Computed once
// per publish, off the serving path, only when drift tracking is enabled.
func driftBaseline(sur Surrogate, snapX, snapY *tensor.Matrix) float64 {
	n := snapX.Rows
	if n == 0 {
		return 0
	}
	var idx []int // nil = every row
	if n > driftBaselineRows {
		step := (n + driftBaselineRows - 1) / driftBaselineRows
		for i := 0; i < n; i += step {
			idx = append(idx, i)
		}
	}
	resids := batchResiduals(sur, snapX, snapY, idx)
	sum := 0.0
	for _, r := range resids {
		sum += r
	}
	return sum / float64(len(resids))
}

// ShardedWrapper is the MLaroundHPC runtime. It routes every query to an
// input-space shard, serves it from that shard's published surrogate when
// the UQ gate passes, and falls back to the oracle otherwise —
// accumulating fallback results per shard, keeping the
// effective-performance ledger, and refitting each shard's surrogate in
// the background on a snapshot of its data. Publishing is an atomic
// pointer swap: Query and QueryBatch never block on a refit. With
// Shards: 1 it is the plain unsharded wrapper; train-then-serve is
// Pretrain, or Wait after the cold-start queries.
//
// All methods are safe for concurrent use; the Oracle must itself
// tolerate concurrent Run calls when the wrapper is queried from several
// goroutines. Background refit failures — a Train that returns an error
// or panics — are reported by Wait (training never takes the serving
// path down: the previous model keeps serving).
type ShardedWrapper struct {
	oracle  Oracle
	factory SurrogateFactory
	router  Router
	cfg     ShardedConfig
	in, out int
	shards  []*shard

	// In-flight refit tracking. A plain WaitGroup would be misuse here:
	// queries call the equivalent of Add(1) from a zero counter
	// concurrently with Wait, which WaitGroup forbids. A counter and
	// condvar under one mutex give the same quiesce semantics safely.
	refitMu   sync.Mutex
	refitDone *sync.Cond // signalled when inflight returns to 0
	inflight  int
	trainErr  error // first background refit failure since the last Wait

	// Timer-driven periodic retrainer (StartAutoRefit / StopAutoRefit).
	autoMu   sync.Mutex
	autoStop chan struct{}
	autoDone chan struct{}

	scratch sync.Pool // *shardScratch for QueryBatchInto

	quantQueries   atomic.Uint64 // lookups served through quantized programs
	quantFallbacks atomic.Uint64 // of those, re-runs on the float program

	// publishHook, when set, observes every generation that wins its
	// publish race — the registry-persistence seam.
	publishHook atomic.Pointer[PublishHook]

	ledgerBox
}

// SetPublishHook installs (or, with nil, removes) the publish observer:
// it fires once per shard generation that actually starts serving
// (publishes discarded by the generation-order race are not reported),
// synchronously on the refit goroutine, after the pointer swap. Safe
// for concurrent use with serving and refits.
func (w *ShardedWrapper) SetPublishHook(h PublishHook) {
	if h == nil {
		w.publishHook.Store(nil)
		return
	}
	w.publishHook.Store(&h)
}

// notifyPublish fires the publish hook for a shard generation that just
// started serving.
func (w *ShardedWrapper) notifyPublish(shardIdx int, sur Surrogate, residBase float64) {
	if hp := w.publishHook.Load(); hp != nil {
		(*hp)(shardIdx, sur, residBase)
	}
}

// WarmStart installs a pre-trained surrogate (typically decoded from a
// registry artifact) as shard si's serving model, but only while the
// shard has never published a generation of its own — live training
// always outranks a restored model. residBase seeds the drift tracker
// with the baseline the artifact carried, so drift detection resumes
// where the publisher left off. The shard's Generation stays -1: the
// restored model is generation "before zero", and the first real refit
// replaces it through the ordinary publish race. Returns whether the
// model was installed.
func (w *ShardedWrapper) WarmStart(si int, sur Surrogate, residBase float64) bool {
	s := w.shards[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.publishedGen >= 0 || s.active.Load() != nil {
		return false
	}
	s.active.Store(&sur)
	s.residBase, s.residEWMA = residBase, residBase
	return true
}

// Reinstall force-publishes a surrogate on shard si as a fresh snapshot
// generation — the rollback path. Claiming a new generation (rather
// than rewinding to an old one) keeps the publish order monotonic: any
// refit already in flight on an older snapshot loses the publish race
// to the reinstalled model instead of immediately re-serving the model
// being rolled away from. Drift state resets to residBase. The publish
// hook is NOT fired — rollback restores an artifact the registry
// already holds.
func (w *ShardedWrapper) Reinstall(si int, sur Surrogate, residBase float64) {
	s := w.shards[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.nextSnapGen
	s.nextSnapGen++
	s.publishedGen = gen
	s.active.Store(&sur)
	s.residBase, s.residEWMA = residBase, residBase
	s.drifted = false
	s.driftGen = gen
}

// NewShardedWrapper constructs a sharded, double-buffered wrapper around
// oracle. factory supplies a fresh surrogate per shard per refit
// generation.
func NewShardedWrapper(oracle Oracle, factory SurrogateFactory, cfg ShardedConfig) *ShardedWrapper {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Router == nil {
		cfg.Router = HashRouter{Shards: cfg.Shards}
	}
	cfg.Shards = cfg.Router.NumShards()
	if cfg.Shards < 1 {
		panic("core: router with no shards")
	}
	if cfg.MinTrainSamples <= 0 {
		cfg.MinTrainSamples = 50
	}
	if cfg.OracleWorkers <= 0 {
		cfg.OracleWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.DriftAlpha <= 0 || cfg.DriftAlpha > 1 {
		cfg.DriftAlpha = 0.1
	}
	cfg.Retention = clampRetention(cfg.Retention, cfg.MinTrainSamples)
	if cfg.Quantized {
		// Every factory product — including each refit generation a shard
		// publishes — compiles its quantized program on Train, so the
		// published model always serves the int8 form.
		inner := factory
		factory = func() Surrogate {
			s := inner()
			if dg, ok := s.(Degradable); ok {
				dg.SetQuantize(true)
			}
			return s
		}
	}
	in, out := oracle.Dims()
	w := &ShardedWrapper{
		oracle: oracle, factory: factory, router: cfg.Router, cfg: cfg,
		in: in, out: out,
	}
	w.refitDone = sync.NewCond(&w.refitMu)
	for i := 0; i < cfg.Shards; i++ {
		w.shards = append(w.shards, &shard{
			idx: i,
			xs:  tensor.NewMatrix(0, in), ys: tensor.NewMatrix(0, out),
			publishedGen: -1,
		})
	}
	return w
}

// NumShards returns the partition width.
func (w *ShardedWrapper) NumShards() int { return len(w.shards) }

// Dims returns the input and output dimensionality served by the wrapper.
func (w *ShardedWrapper) Dims() (in, out int) { return w.in, w.out }

// Route exposes the wrapper's routing decision for x.
func (w *ShardedWrapper) Route(x []float64) int { return w.router.Route(x) }

// TrainingSetSize returns the total accumulated oracle samples across all
// shards.
func (w *ShardedWrapper) TrainingSetSize() int {
	total := 0
	for _, s := range w.shards {
		s.mu.Lock()
		total += s.xs.Rows
		s.mu.Unlock()
	}
	return total
}

// ShardSizes returns the per-shard training-set sizes.
func (w *ShardedWrapper) ShardSizes() []int {
	sizes := make([]int, len(w.shards))
	for i, s := range w.shards {
		s.mu.Lock()
		sizes[i] = s.xs.Rows
		s.mu.Unlock()
	}
	return sizes
}

// Query answers one input point: a batch of one, run through the body
// QueryBatchInto runs — served from the routed shard's published surrogate
// when the UQ gate passes, from the oracle otherwise. It never blocks on a
// refit. A surrogate answer's y and std share one caller-owned array, the
// call's only allocation. Safe for concurrent use.
func (w *ShardedWrapper) Query(x []float64) (y []float64, src Source, std []float64, err error) {
	if len(x) != w.in {
		return nil, FromSimulation, nil, fmt.Errorf("core: query has %d dims, oracle wants %d", len(x), w.in)
	}
	buf := make([]float64, 2*w.out)
	// The one-row view and its result live in the pooled scratch: on the
	// stack they would escape through the oracle fan-out's closure. Y's
	// capacity stops at out so an appending caller can never grow into Std.
	sc := w.getScratch()
	sc.row = tensor.Matrix{Rows: 1, Cols: len(x), Data: x}
	sc.one[0] = BatchResult{Y: buf[:0:w.out], Std: buf[w.out:w.out]}
	w.queryInto(sc, &sc.row, sc.one[:])
	r := sc.one[0]
	sc.row.Data, sc.one[0] = nil, BatchResult{} // the pool must not keep the caller's vector or answer alive
	w.scratch.Put(sc)
	return r.Y, r.Src, r.Std, r.Err
}

// lookup is the one surrogate lookup every query path runs: sur's
// predictive mean and std for each row of x, left in sc.mean and sc.std.
// When the wrapper is configured Quantized and sur has an int8 program
// ready, that program answers first and the guardrail re-decides its
// doubtful rows on the float program.
func (w *ShardedWrapper) lookup(sur Surrogate, sc *shardScratch, x *tensor.Matrix) {
	if dg, ok := sur.(Degradable); ok && w.cfg.Quantized && dg.QuantizedReady() {
		if cap(sc.oks) < x.Rows {
			sc.oks = make([]bool, x.Rows)
		}
		oks := sc.oks[:x.Rows]
		dg.PredictQuantInto(x, &sc.mean, &sc.std, oks)
		w.quantQueries.Add(uint64(x.Rows))
		w.quantGuard(sur, sc, x, oks, dg.QuantGateBound())
		return
	}
	sur.PredictInto(x, &sc.mean, &sc.std)
}

// quantGuard applies the float-fallback guardrail to the quantized answer
// in sc.mean/sc.std: rows whose input clipped against the calibrated
// envelope (ok=false) or whose gating std lands within band of the
// threshold (the quantization delta could flip the accept/reject
// decision) are gathered and re-run in one batch on the float program,
// overwriting their rows, so the gate decides on exact numbers.
func (w *ShardedWrapper) quantGuard(sur Surrogate, sc *shardScratch, x *tensor.Matrix, oks []bool, band float64) {
	flagged := sc.flagged[:0]
	for k, ok := range oks {
		if !ok || math.Abs(maxOf(sc.std.Row(k))-w.cfg.UQThreshold) <= band {
			flagged = append(flagged, k)
		}
	}
	sc.flagged = flagged
	if len(flagged) == 0 {
		return
	}
	w.quantFallbacks.Add(uint64(len(flagged)))
	sur.PredictInto(tensor.GatherRowsInto(&sc.fx, x, flagged), &sc.fmean, &sc.fstd)
	for j, k := range flagged {
		copy(sc.mean.Row(k), sc.fmean.Row(j))
		copy(sc.std.Row(k), sc.fstd.Row(j))
	}
}

// QuantStats reports how many lookups across all shards were served through
// quantized programs and how many of those re-ran on the retained float
// program because the UQ gate decision sat inside the quantization error
// band (or the input clipped the int8 envelope).
func (w *ShardedWrapper) QuantStats() (queries, fallbacks uint64) {
	return w.quantQueries.Load(), w.quantFallbacks.Load()
}

// shardScratch pools the per-call working state of one Query or
// QueryBatchInto — the shard partition, the gather buffer, the miss index
// list, the surrogate's mean/std staging and the guardrail's re-run batch
// — so a warmed steady-state batch query performs zero heap allocations.
// Ingest borrows it for its partition alone.
type shardScratch struct {
	byShard   [][]int
	sub       tensor.Matrix  // one shard's rows, gathered
	row       tensor.Matrix  // Query's one-row view of the caller's vector
	one       [1]BatchResult // Query's one result row
	miss      []int
	mean, std tensor.Matrix
	oks       []bool // per-row quantization envelope verdicts

	flagged         []int         // rows the quant guardrail re-runs,
	fx, fmean, fstd tensor.Matrix // their inputs gathered, their float answers
}

func (w *ShardedWrapper) getScratch() *shardScratch {
	if sc, ok := w.scratch.Get().(*shardScratch); ok {
		return sc
	}
	return &shardScratch{byShard: make([][]int, len(w.shards))}
}

// partition routes every row of xs into sc.byShard, the row indices of
// each shard in row order, and returns it.
func (w *ShardedWrapper) partition(sc *shardScratch, xs *tensor.Matrix) [][]int {
	byShard := sc.byShard
	for si := range byShard {
		byShard[si] = byShard[si][:0]
	}
	for i := 0; i < xs.Rows; i++ {
		si := w.router.Route(xs.Row(i))
		byShard[si] = append(byShard[si], i)
	}
	return byShard
}

// QueryBatch answers every row of xs: rows are partitioned by shard, each
// shard's slice is served in one amortized batched surrogate pass, and the
// UQ-rejected remainder fans out over the bounded oracle worker pool.
// Per-row oracle failures are reported in the row's Err. Background refit
// failures never surface here (see Wait); the returned error is reserved
// for malformed input. The returned results are caller-owned. Safe for
// concurrent use.
func (w *ShardedWrapper) QueryBatch(xs *tensor.Matrix) ([]BatchResult, error) {
	if xs.Rows == 0 {
		return nil, nil
	}
	if xs.Cols != w.in {
		return nil, fmt.Errorf("core: batch has %d cols, oracle wants %d", xs.Cols, w.in)
	}
	res := make([]BatchResult, xs.Rows)
	return res, w.QueryBatchInto(xs, res)
}

// QueryBatchInto is the buffer-reusing form of QueryBatch: surrogate-served
// rows overwrite res[i].Y/Std in place when capacity suffices, so a
// steady-state sweep loop reusing one res slice avoids the per-call result
// allocations (oracle-answered rows still receive oracle-owned slices).
func (w *ShardedWrapper) QueryBatchInto(xs *tensor.Matrix, res []BatchResult) error {
	if xs.Rows == 0 {
		return nil
	}
	if xs.Cols != w.in {
		return fmt.Errorf("core: batch has %d cols, oracle wants %d", xs.Cols, w.in)
	}
	if len(res) != xs.Rows {
		return fmt.Errorf("core: res has %d entries for a %d-row batch", len(res), xs.Rows)
	}
	sc := w.getScratch()
	w.queryInto(sc, xs, res)
	w.scratch.Put(sc)
	return nil
}

// queryInto is the one query body, Query's and QueryBatchInto's: it
// answers every row of the validated batch xs into res over the scratch
// sc. A published surrogate is loaded with one atomic pointer read — no
// lock is taken, so lookups proceed at full speed while a shard refits.
func (w *ShardedWrapper) queryInto(sc *shardScratch, xs *tensor.Matrix, res []BatchResult) {
	byShard := w.partition(sc, xs)

	// Serve each shard's slice from its published surrogate; collect the
	// UQ-rejected rows. The gather and staging buffers are reused across
	// shards (and, through the pool, across calls).
	miss := sc.miss[:0]
	for si, idx := range byShard {
		if len(idx) == 0 {
			continue
		}
		surp := w.shards[si].active.Load()
		if surp == nil {
			miss = append(miss, idx...)
			continue
		}
		tensor.GatherRowsInto(&sc.sub, xs, idx)
		t0 := time.Now()
		w.lookup(*surp, sc, &sc.sub)
		per := time.Since(t0) / time.Duration(len(idx))
		var served, rejected int
		miss, served, rejected = gateBatchRows(res, miss, idx, &sc.mean, &sc.std, w.cfg.UQThreshold)
		w.recordBatchLookups(per, served, rejected)
	}
	sc.miss = miss
	if len(miss) == 0 {
		return
	}

	// Oracle fallback: bounded parallel fan-out instead of a sequential
	// loop. Results land in disjoint res rows.
	w.oracleFanout(xs, miss, res)

	// Feed successful fallbacks back into their shards' training sets,
	// and (with drift tracking armed) fold their residuals against the
	// published models into the drift EWMAs.
	for si, idx := range byShard {
		w.addSamples(w.shards[si], xs, idx, res)
		if w.cfg.DriftFactor > 0 {
			w.foldFallbackResiduals(w.shards[si], xs, idx, res)
		}
	}
}

// addSamples appends the rows of xs indexed by idx that the oracle
// answered successfully in res to shard s, straight from res under the
// shard lock, and kicks off a background refit when one is due. A shard
// none of whose rows the oracle answered is not locked.
func (w *ShardedWrapper) addSamples(s *shard, xs *tensor.Matrix, idx []int, res []BatchResult) {
	locked := false
	for _, i := range idx {
		if res[i].Src != FromSimulation || res[i].Err != nil {
			continue
		}
		if !locked {
			s.mu.Lock()
			locked = true
		}
		w.cfg.Retention.add(s.xs, s.ys, xs.Row(i), res[i].Y)
		s.newSinceTrain++
	}
	if !locked {
		return
	}
	snapX, snapY, gen, consumed := w.refitDueLocked(s)
	s.mu.Unlock()
	if snapX != nil {
		w.spawnRefit(s, snapX, snapY, gen, consumed)
	}
}

// beginRefit registers one in-flight refit; endRefit retires it,
// recording the first failure and waking Wait when the count drains.
func (w *ShardedWrapper) beginRefit() {
	w.refitMu.Lock()
	w.inflight++
	w.refitMu.Unlock()
}

func (w *ShardedWrapper) endRefit(err error) {
	w.refitMu.Lock()
	if err != nil && w.trainErr == nil {
		w.trainErr = err
	}
	w.inflight--
	if w.inflight == 0 {
		w.refitDone.Broadcast()
	}
	w.refitMu.Unlock()
}

// spawnRefit launches one registered background refit.
func (w *ShardedWrapper) spawnRefit(s *shard, snapX, snapY *tensor.Matrix, gen, consumed int) {
	w.beginRefit()
	go w.refit(s, snapX, snapY, gen, consumed)
}

// refitDueLocked decides whether s owes a refit and, if so, snapshots its
// training set and marks the refit in flight. Callers hold s.mu. A non-nil
// snapshot means "spawn a refit"; consumed is the retrain credit the
// snapshot absorbed, restored if the fit fails.
func (w *ShardedWrapper) refitDueLocked(s *shard) (snapX, snapY *tensor.Matrix, gen, consumed int) {
	if s.refitting {
		return nil, nil, 0, 0
	}
	due := false
	if s.active.Load() == nil {
		due = s.xs.Rows >= w.cfg.MinTrainSamples
	} else if w.cfg.RetrainEvery > 0 {
		due = s.newSinceTrain >= w.cfg.RetrainEvery
	}
	// A drifted shard owes a refit regardless of the RetrainEvery
	// schedule (including RetrainEvery == 0, where drift is the only
	// retrain trigger): the published model no longer matches the data.
	if !due && s.drifted {
		due = true
	}
	if !due {
		return nil, nil, 0, 0
	}
	s.refitting = true
	snapX, snapY, gen, consumed = s.snapshotLocked()
	return snapX, snapY, gen, consumed
}

// trainAndPublish fits a fresh factory surrogate on snapshot generation
// gen of s and publishes it generation-ordered: serving is never paused,
// and a fit that finishes after a newer snapshot's model has been
// published is discarded. Factory, Train and the publish hook are user
// code, run here on a refit goroutine or a TrainAll worker with no
// caller above to recover, so a panic in any of them comes back as the
// training error instead of taking the process down.
func (w *ShardedWrapper) trainAndPublish(s *shard, snapX, snapY *tensor.Matrix, gen int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: surrogate training panicked: %v", r)
		}
	}()
	sur := w.factory()
	t0 := time.Now()
	if err := sur.Train(snapX, snapY); err != nil {
		return err
	}
	dt := time.Since(t0)
	w.record(func(l *Ledger) { l.RecordTraining(dt, snapX.Rows) })
	base := w.driftBaselineFor(sur, snapX, snapY)
	if s.publishIfNewer(sur, gen, base) {
		w.notifyPublish(s.idx, sur, base)
	}
	return nil
}

// refit is one background trainAndPublish, chained while the shard stays
// due.
func (w *ShardedWrapper) refit(s *shard, snapX, snapY *tensor.Matrix, gen, consumed int) {
	if err := w.trainAndPublish(s, snapX, snapY, gen); err != nil {
		// Keep serving the previous generation and give back the retrain
		// credit the snapshot absorbed, so the very next sample retries
		// instead of waiting for a whole fresh RetrainEvery window.
		s.mu.Lock()
		s.refitting = false
		s.newSinceTrain += consumed
		s.mu.Unlock()
		w.endRefit(err)
		return
	}
	// Samples may have piled past the retrain threshold while this fit
	// ran; chain one follow-up so a busy shard cannot go stale.
	s.mu.Lock()
	s.refitting = false
	nextX, nextY, nextGen, nextConsumed := w.refitDueLocked(s)
	s.mu.Unlock()
	if nextX != nil {
		w.spawnRefit(s, nextX, nextY, nextGen, nextConsumed)
	}
	w.endRefit(nil)
}

// refitWhere snapshots and spawns a background refit on every shard with
// data that satisfies due (evaluated with the shard lock held; shards
// already refitting are skipped) and returns the number spawned.
func (w *ShardedWrapper) refitWhere(due func(s *shard) bool) int {
	spawned := 0
	for _, s := range w.shards {
		s.mu.Lock()
		var snapX, snapY *tensor.Matrix
		var gen, consumed int
		if !s.refitting && s.xs.Rows > 0 && due(s) {
			s.refitting = true
			snapX, snapY, gen, consumed = s.snapshotLocked()
		}
		s.mu.Unlock()
		if snapX != nil {
			w.spawnRefit(s, snapX, snapY, gen, consumed)
			spawned++
		}
	}
	return spawned
}

// Refit asynchronously retrains every shard that has any data on a
// snapshot of its current training set, regardless of the RetrainEvery
// schedule (shards already refitting are skipped). It returns immediately;
// Wait observes completion.
func (w *ShardedWrapper) Refit() {
	w.refitWhere(func(*shard) bool { return true })
}

// RefitStale asynchronously retrains every shard that is stale: it has
// accumulated samples no training snapshot has absorbed, it has drifted
// past the configured residual factor (see ShardedConfig.DriftFactor),
// or it has reached MinTrainSamples without a published model (the same
// first-fit gate the query path enforces). Fresh shards are left alone,
// so calling it on a timer costs nothing when no new data arrived. It
// returns the number of refits spawned; Wait observes their completion.
func (w *ShardedWrapper) RefitStale() int {
	return w.refitWhere(func(s *shard) bool {
		if s.active.Load() == nil {
			return s.xs.Rows >= w.cfg.MinTrainSamples
		}
		return s.newSinceTrain > 0 || s.drifted
	})
}

// StartAutoRefit launches the timer-driven periodic retrainer: every
// interval it calls RefitStale, so a long-running server keeps its
// published models fresh without any query-path trigger (the ROADMAP's
// periodic-retrain driver). It panics if a driver is already running;
// StopAutoRefit stops it.
func (w *ShardedWrapper) StartAutoRefit(interval time.Duration) {
	if interval <= 0 {
		panic("core: auto-refit interval must be positive")
	}
	w.autoMu.Lock()
	defer w.autoMu.Unlock()
	if w.autoStop != nil {
		panic("core: auto-refit already running")
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	w.autoStop, w.autoDone = stop, done
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				w.RefitStale()
			}
		}
	}()
}

// StopAutoRefit stops the periodic retrainer and waits for the driver
// goroutine to exit (refits it already spawned keep running; use Wait to
// drain them). It is a no-op if no driver is running.
func (w *ShardedWrapper) StopAutoRefit() {
	w.autoMu.Lock()
	stop, done := w.autoStop, w.autoDone
	w.autoStop, w.autoDone = nil, nil
	w.autoMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// ShardStatus is one shard's serving-staleness report.
type ShardStatus struct {
	// Samples is the shard's accumulated training-set size.
	Samples int
	// Stale counts samples no training snapshot has absorbed yet — the
	// per-shard staleness metric the periodic retrainer drains.
	Stale int
	// Generation is the snapshot generation of the published model, or -1
	// while the shard still serves everything from the oracle.
	Generation int
	// Refitting reports whether a background refit is in flight.
	Refitting bool
	// Drifted reports whether the ingested-residual EWMA has exceeded
	// DriftFactor times the post-publish baseline (always false with
	// drift tracking disabled). A drifted shard owes a refit.
	Drifted bool
	// DriftRatio is the current residual EWMA over the post-publish
	// baseline (0 until the baseline warms up) — how far the published
	// model has slid against fresh data.
	DriftRatio float64
}

// Status returns the per-shard staleness metrics.
func (w *ShardedWrapper) Status() []ShardStatus {
	out := make([]ShardStatus, len(w.shards))
	for i, s := range w.shards {
		s.mu.Lock()
		st := ShardStatus{
			Samples:    s.xs.Rows,
			Stale:      s.newSinceTrain,
			Generation: s.publishedGen,
			Refitting:  s.refitting,
			Drifted:    s.drifted,
		}
		if s.residEWMA > 0 {
			st.DriftRatio = s.residEWMA / flooredBase(s.residBase)
		}
		s.mu.Unlock()
		out[i] = st
	}
	return out
}

// Wait blocks until no background refit is in flight and returns the first
// background training failure observed since the previous Wait (clearing
// it). A nil return means every completed refit published successfully.
func (w *ShardedWrapper) Wait() error {
	w.refitMu.Lock()
	defer w.refitMu.Unlock()
	for w.inflight > 0 {
		w.refitDone.Wait()
	}
	err := w.trainErr
	w.trainErr = nil
	return err
}

// Ingest routes precomputed (x, y) sample rows into the shard training
// sets without running the oracle or charging the ledger — the bulk-load
// path for corpora computed elsewhere. Ingested rows count toward shard
// staleness (they are data no published model has seen) but never trigger
// refits themselves; call TrainAll, Refit, or run StartAutoRefit.
//
// With ShardedConfig.DriftFactor set, each ingested sample's residual
// against the shard's published model feeds the drift tracker: a stream
// of fresh data the model no longer explains marks the shard drifted, so
// the next RefitStale / auto-refit tick (or the next query-path sample)
// retrains it without waiting out RetrainEvery.
func (w *ShardedWrapper) Ingest(xs, ys *tensor.Matrix) error {
	if xs.Rows != ys.Rows {
		return fmt.Errorf("core: ingest rows mismatch %d vs %d", xs.Rows, ys.Rows)
	}
	if xs.Cols != w.in || ys.Cols != w.out {
		return fmt.Errorf("core: ingest expects %d→%d, got %d→%d", w.in, w.out, xs.Cols, ys.Cols)
	}
	// Partition rows by shard, in the pooled query scratch, so the bulk
	// path pays one lock round-trip (and, for drift, one published-model
	// load) per shard instead of per row.
	sc := w.getScratch()
	defer w.scratch.Put(sc)
	for si, idx := range w.partition(sc, xs) {
		if len(idx) == 0 {
			continue
		}
		s := w.shards[si]
		// Residuals against the currently published model, computed
		// outside the shard lock: Predict must already tolerate
		// concurrent readers (the serving path's contract). The model and
		// its generation are captured as a consistent pair so residuals
		// measured against a model that a background refit supersedes
		// mid-computation are discarded, never folded into the new
		// model's fresh EWMA.
		var resids []float64
		residGen := -1
		if w.cfg.DriftFactor > 0 {
			s.mu.Lock()
			surp := s.active.Load()
			residGen = s.publishedGen
			s.mu.Unlock()
			if surp != nil {
				resids = batchResiduals(*surp, xs, ys, idx)
			}
		}
		s.mu.Lock()
		if resids != nil && s.publishedGen != residGen {
			resids = nil // a newer model published mid-computation
		}
		for k, i := range idx {
			w.cfg.Retention.add(s.xs, s.ys, xs.Row(i), ys.Row(i))
			s.newSinceTrain++
			if resids != nil {
				s.observeResidualLocked(resids[k], w.cfg.DriftFactor, w.cfg.DriftAlpha)
			}
		}
		s.mu.Unlock()
	}
	return nil
}

// meanAbsDiff is the mean absolute elementwise difference — the residual
// metric drift tracking uses.
func meanAbsDiff(a, b []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	sum := 0.0
	for j := range a {
		sum += math.Abs(a[j] - b[j])
	}
	return sum / float64(len(a))
}

// TrainAll synchronously fits every non-empty shard on a snapshot of its
// current data and publishes the results, returning the first training
// failure. Empty shards are skipped (they keep serving from the oracle).
// Shard fits are independent (fresh factory surrogates on cloned
// snapshots), so they run over the bounded worker pool; publishes are
// generation-ordered, so a background refit of an older snapshot
// finishing later can never displace a model trained here.
func (w *ShardedWrapper) TrainAll() error {
	errs := make([]error, len(w.shards))
	parallel.ForEachBounded(len(w.shards), runtime.GOMAXPROCS(0), func(si int) {
		s := w.shards[si]
		s.mu.Lock()
		if s.xs.Rows == 0 {
			s.mu.Unlock()
			return
		}
		snapX, snapY, gen, _ := s.snapshotLocked()
		s.mu.Unlock()
		if err := w.trainAndPublish(s, snapX, snapY, gen); err != nil {
			errs[si] = fmt.Errorf("core: shard %d: %w", si, err)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Pretrain's chunk is max(pretrainChunk, pretrainRowsPerWorker ·
// OracleWorkers) kept design rows — rows the plan sends to the oracle,
// skipped rows not counted — so every fan-out but the last is full. Every
// worker waits for the slowest at a chunk's end, about half a row each, so
// 64 rows a worker keeps that idle time under ~1/128 of the pool's.
const (
	pretrainChunk         = 1024
	pretrainRowsPerWorker = 64
)

// Pretrain runs the oracle over the design points the shard windows will
// keep (through the bounded worker pool, aborting early on the first
// failure), routes the results into the shards, and fits every non-empty
// shard synchronously — the batch alternative to the online Query path.
//
// Under RetainWindow the campaign is planned first. Which rows a window
// keeps depends only on how many rows reach it, and the Router is a fixed
// function of x, so one routing pass tells how many of each shard's
// design rows its window will have pushed out by the closing TrainAll
// (and how many of the rows it already holds); those rows never reach the
// oracle, and the held rows the full campaign would push out are dropped
// up front. Every window, and so every published model, ends bit-identical
// to one Ingest of the whole design's answers followed by TrainAll. The
// plan assumes the campaign is the shards' only writer while it runs:
// rows a concurrent query ingests are newer than the plan knows, so they
// only push more of the campaign's rows out. RetainAll keeps every row, so
// every row runs.
//
// The Ledger charges the runs made, not the design's size. A failing row
// that the windows would drop is never run, so it cannot abort the
// campaign; a failing kept row aborts it, with the error naming the row by
// its design index, and no later chunk runs (held rows the plan dropped
// stay dropped).
//
// The kept rows stream through in chunks, in design order: each chunk's
// oracle runs fan out, its successful rows go into the shard windows
// (Ingest), and the chunk's buffers are reused for the next one. No
// per-row state outlives its chunk and the plan is O(Shards), so a
// campaign holds O(chunk + window) memory at any design size.
func (w *ShardedWrapper) Pretrain(design *tensor.Matrix) error {
	if design.Cols != w.in {
		return fmt.Errorf("core: design has %d cols, oracle wants %d", design.Cols, w.in)
	}
	skip := w.pretrainSkip(design)
	kept := design.Rows
	for _, n := range skip {
		kept -= n
	}
	chunk := min(kept, max(pretrainChunk, pretrainRowsPerWorker*w.cfg.OracleWorkers))
	res := make([]BatchResult, chunk)
	sel := make([]int, 0, chunk)
	routed := make([]int, len(skip))
	xs := tensor.NewMatrix(chunk, w.in)
	ys := tensor.NewMatrix(chunk, w.out)
	for i := 0; i < design.Rows; {
		sel = sel[:0]
		for ; i < design.Rows && len(sel) < chunk; i++ {
			if skip != nil {
				si := w.router.Route(design.Row(i))
				if routed[si]++; routed[si] <= skip[si] {
					continue
				}
			}
			sel = append(sel, i)
		}
		ferr := w.pretrainFanout(design, sel, res[:len(sel)])
		// Keep every successful sample — "no run is wasted" — even when the
		// campaign aborted on a failure.
		xs.Reshape(0, w.in)
		ys.Reshape(0, w.out)
		for k, r := range res[:len(sel)] {
			if r.Err == nil && r.Y != nil {
				xs.AppendRow(design.Row(sel[k]))
				ys.AppendRow(r.Y)
			}
		}
		if err := w.Ingest(xs, ys); err != nil {
			return err
		}
		if ferr != nil {
			return ferr
		}
	}
	return w.TrainAll()
}

// pretrainSkip plans a RetainWindow campaign: entry s is how many of the
// design rows routed to shard s the window will have pushed out by the
// campaign's end, which are the first ones routed there. Rows the shard
// already holds that the full campaign would push out are dropped here, so
// the kept rows then append with no trim firing and the window ends as the
// unplanned campaign leaves it. Under RetainAll it returns nil: every row
// runs.
func (w *ShardedWrapper) pretrainSkip(design *tensor.Matrix) []int {
	ret := w.cfg.Retention
	if !ret.bounded() {
		return nil
	}
	skip := make([]int, len(w.shards))
	for i := 0; i < design.Rows; i++ {
		skip[w.router.Route(design.Row(i))]++
	}
	for si, s := range w.shards {
		m := skip[si]
		s.mu.Lock()
		held := s.xs.Rows
		r := ret.windowAfter(held, m)
		// The window ends as the newest r of held ++ m rows: max(0, r−m)
		// held rows survive, and the first max(0, m−r) design rows do not.
		if drop := held - max(0, r-m); drop > 0 {
			dropOldestRows(s.xs, drop)
			dropOldestRows(s.ys, drop)
		}
		s.mu.Unlock()
		skip[si] = max(0, m-r)
	}
	return skip
}

// fanoutTally accumulates what one oracle fan-out owes the ledger, so the
// fan-out charges it with one record call instead of one per row.
type fanoutTally struct {
	out                               int // the answer length Dims promises
	runs, runTime, failed, failedTime atomic.Int64
}

// run times one oracle call into the tally and returns its result row
// (Err unwrapped), then yields. The fan-out's goroutines, the querying
// caller among them, go from run to run without parking; a client that
// queries in a closed loop would otherwise never reach a scheduling
// point, and the background refits, which yield after every minibatch,
// would get one minibatch per time slice (measured on the benchmark's
// learn_loop: a quarter of the generations published, answers 60 %
// further off, other callers' workers stalled 10 ms and more behind it).
// An oracle run is the stack's coarsest unit of work, so one scheduling
// point per run costs it nothing.
//
// An answer whose length is not the out Dims promised is that row's
// failure: as a training sample it would panic the shard's append with
// the shard lock held and wedge the shard for good.
func (t *fanoutTally) run(oracle Oracle, x []float64) BatchResult {
	t0 := time.Now()
	y, err := oracle.Run(x)
	dt := int64(time.Since(t0))
	runtime.Gosched()
	if err == nil && len(y) != t.out {
		err = fmt.Errorf("answered %d values, Dims promises %d", len(y), t.out)
	}
	if err != nil {
		t.failed.Add(1)
		t.failedTime.Add(dt)
		return BatchResult{Src: FromSimulation, Err: err}
	}
	t.runs.Add(1)
	t.runTime.Add(dt)
	return BatchResult{Y: y, Src: FromSimulation}
}

// charge folds the tally into the ledger: the same totals as one
// RecordSimulation / RecordFailedRun per row.
func (t *fanoutTally) charge(record func(func(*Ledger))) {
	record(func(l *Ledger) {
		l.NTrain += int(t.runs.Load())
		l.SimTime += time.Duration(t.runTime.Load())
		l.NFailed += int(t.failed.Load())
		l.FailedTime += time.Duration(t.failedTime.Load())
	})
}

// oracleFanout runs the oracle on the miss rows of xs with at most
// OracleWorkers concurrent goroutines, writing each answer into its res
// row and charging the ledger. Rows are disjoint, so no result locking is
// needed; oracles must tolerate concurrent Run calls (the contract
// concurrent wrapper use already imposes). One worker runs inline.
func (w *ShardedWrapper) oracleFanout(xs *tensor.Matrix, miss []int, res []BatchResult) {
	tally := fanoutTally{out: w.out}
	parallel.ForEachBounded(len(miss), w.cfg.OracleWorkers, func(k int) {
		i := miss[k]
		res[i] = tally.run(w.oracle, xs.Row(i))
		if err := res[i].Err; err != nil {
			res[i].Err = fmt.Errorf("core: oracle: %w", err)
		}
	})
	tally.charge(w.record)
}

// pretrainFanout runs the oracle over one chunk of Pretrain's design, the
// rows indexed by sel, into the caller-owned res (res[k] answers row
// sel[k]; cleared first), with at most OracleWorkers goroutines and early
// abort: once any run fails, rows not yet started are skipped (their res
// entry stays zero: Y nil, Err nil), so a design with an early
// deterministic failure doesn't burn the rest of an expensive campaign.
// The first failing row's error, naming the row by its design index, is
// returned; successful rows are usable from res either way. Its memory is
// res's: O(chunk).
func (w *ShardedWrapper) pretrainFanout(design *tensor.Matrix, sel []int, res []BatchResult) error {
	clear(res)
	tally := fanoutTally{out: w.out}
	parallel.ForEachBounded(len(sel), w.cfg.OracleWorkers, func(k int) {
		if tally.failed.Load() > 0 {
			return
		}
		res[k] = tally.run(w.oracle, design.Row(sel[k]))
		if err := res[k].Err; err != nil {
			res[k].Err = fmt.Errorf("core: pretrain point %d: %w", sel[k], err)
		}
	})
	tally.charge(w.record)
	for _, r := range res {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
