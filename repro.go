// Package repro is the quickstart facade of the Learning Everywhere
// reproduction (Fox et al., IPPS 2019): pervasive machine learning for
// effective high-performance computation. It names the MLaroundHPC loop
// the README quickstart runs — a simulation Oracle, a UQ-gated sharded
// wrapper over NN surrogates, and the effective-performance ledger:
//
//	oracle := repro.OracleFunc{In: 2, Out: 1, F: mySimulation}
//	fac := repro.NewNNSurrogateFactory(2, 1, []int{30, 48}, 0.1, repro.NewRand(1), nil)
//	w := repro.NewShardedWrapper(oracle, fac, repro.ShardedConfig{Shards: 1, UQThreshold: 0.05})
//	y, src, uq, err := w.Query(x) // simulation first, surrogate once trusted
//	res, err := w.QueryBatch(xs)  // amortized batched serving, concurrency-safe
//	fmt.Println(w.Ledger().EffectiveSpeedup(1))
//
// Everything else — coalescer, fleet, wire server and client, artifact
// registry, router — is called by its own package name (internal/serve,
// fleet, netserve, registry, router), as cmd/learnhpc and the examples do.
package repro

import (
	"repro/internal/core"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

type (
	// OracleFunc adapts a function into a simulation Oracle.
	OracleFunc = core.OracleFunc
	// NNSurrogate is the reference MC-dropout MLP surrogate.
	NNSurrogate = core.NNSurrogate
	// ShardedConfig tunes the wrapper; Shards: 1 is the unsharded runtime.
	ShardedConfig = core.ShardedConfig
)

// FromSurrogate is the query source of an answer the surrogate served.
const FromSurrogate = core.FromSurrogate

// Two of the paper's six ML↔HPC interaction modes (§I).
const (
	HPCrunsML   = core.HPCrunsML
	MLaroundHPC = core.MLaroundHPC
)

// NewRand returns a deterministic splittable generator.
func NewRand(seed uint64) *xrand.Rand { return xrand.New(seed) }

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *tensor.Matrix { return tensor.NewMatrix(rows, cols) }

// NewNNSurrogateFactory returns a factory of independently seeded
// reference NN surrogates for use with NewShardedWrapper.
func NewNNSurrogateFactory(in, out int, hidden []int, dropout float64, rng *xrand.Rand, configure func(*NNSurrogate)) core.SurrogateFactory {
	return core.NewNNSurrogateFactory(in, out, hidden, dropout, rng, configure)
}

// NewShardedWrapper wraps an oracle with the MLaroundHPC runtime: UQ-gated,
// sharded, double-buffered surrogates whose refits never stall serving.
func NewShardedWrapper(oracle core.Oracle, factory core.SurrogateFactory, cfg ShardedConfig) *core.ShardedWrapper {
	return core.NewShardedWrapper(oracle, factory, cfg)
}

// EffectiveSpeedup evaluates the paper's §III-D formula.
func EffectiveSpeedup(tseq, ttrain, tlearn, tlookup, nlookup, ntrain float64) float64 {
	return core.EffectiveSpeedup(tseq, ttrain, tlearn, tlookup, nlookup, ntrain)
}
