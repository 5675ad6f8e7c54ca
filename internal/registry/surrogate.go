package registry

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/xrand"
)

// This file binds the registry to the core serving wrapper: shard-key
// naming, publish hooks that persist every generation a wrapper starts
// serving, warm starts that restore the newest durable generation with
// zero retraining, and the rollback path that reinstalls a predecessor.

// ShardKey names one shard of a tenant's model sequence in the
// registry. A one-shard wrapper publishes as shard 0.
func ShardKey(tenant string, shard int) string {
	return fmt.Sprintf("%s/shard-%d", tenant, shard)
}

// ParseShardKey inverts ShardKey; ok is false for foreign keys. The
// dispatch tier uses it to recover the tenant an over-the-wire artifact
// push belongs to.
func ParseShardKey(key string) (tenant string, shard int, ok bool) {
	i := strings.LastIndex(key, "/shard-")
	if i < 1 {
		return "", 0, false
	}
	n := 0
	digits := key[i+len("/shard-"):]
	if digits == "" {
		return "", 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' || n > 1<<20 {
			return "", 0, false
		}
		n = n*10 + int(c-'0')
	}
	return key[:i], n, true
}

// artifactEncoder is the surrogate capability the publish path needs:
// core.NNSurrogate implements it; other Surrogate implementations are
// simply not persisted.
type artifactEncoder interface {
	EncodeArtifact(residBase float64) ([]byte, error)
}

// PublishSurrogate encodes a trained surrogate into the artifact format
// and commits it as the next generation of key.
func PublishSurrogate(r *Registry, key string, sur core.Surrogate, residBase float64) (uint64, error) {
	enc, ok := sur.(artifactEncoder)
	if !ok {
		return 0, fmt.Errorf("registry: surrogate %T does not encode artifacts", sur)
	}
	data, err := enc.EncodeArtifact(residBase)
	if err != nil {
		return 0, err
	}
	return r.Publish(key, data)
}

// LoadSurrogate opens the newest servable generation of key and decodes
// it into a ready-to-serve surrogate plus the drift baseline it was
// published with.
func LoadSurrogate(r *Registry, key string, rng *xrand.Rand) (sur *core.NNSurrogate, residBase float64, gen uint64, err error) {
	h, err := r.Latest(key)
	if err != nil {
		return nil, 0, 0, err
	}
	sur, residBase, err = core.DecodeNNSurrogate(h.Data, rng)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("registry: decode %s gen %d: %w", key, h.Gen, err)
	}
	return sur, residBase, h.Gen, nil
}

// Publisher returns a core.PublishHook that persists every generation a
// wrapper starts serving under tenant's shard keys. Publish failures
// never disturb serving; they are reported to onError when non-nil.
func Publisher(r *Registry, tenant string, onError func(shard int, err error)) core.PublishHook {
	return func(shard int, sur core.Surrogate, residBase float64) {
		if _, err := PublishSurrogate(r, ShardKey(tenant, shard), sur, residBase); err != nil && onError != nil {
			onError(shard, err)
		}
	}
}

// WarmStartSharded restores each shard of tenant from its newest
// registry generation, installing models only on shards that have not
// published live training (see ShardedWrapper.WarmStart). It returns
// the number of shards warm-started. A shard with no published
// generation is silently skipped; decode failures and dimension
// mismatches are skipped and reported to onError when non-nil.
func WarmStartSharded(r *Registry, tenant string, w *core.ShardedWrapper, rng *xrand.Rand, onError func(shard int, err error)) int {
	wantIn, wantOut := w.Dims()
	warmed := 0
	for si := 0; si < w.NumShards(); si++ {
		sur, base, _, err := LoadSurrogate(r, ShardKey(tenant, si), rng)
		if err != nil {
			if !errors.Is(err, ErrNotFound) && onError != nil {
				onError(si, err)
			}
			continue
		}
		if in, out := sur.Dims(); in != wantIn || out != wantOut {
			if onError != nil {
				onError(si, fmt.Errorf("registry: artifact is %d→%d, wrapper serves %d→%d", in, out, wantIn, wantOut))
			}
			continue
		}
		if w.WarmStart(si, sur, base) {
			warmed++
		}
	}
	return warmed
}

// RollbackShard rolls tenant's shard si back one registry generation
// and reinstalls the restored predecessor into the wrapper as a fresh
// publish generation (see ShardedWrapper.Reinstall), so in-flight
// refits of the rolled-away model lose the publish race. It returns the
// registry generation now serving.
func RollbackShard(r *Registry, tenant string, si int, w *core.ShardedWrapper, rng *xrand.Rand) (uint64, error) {
	key := ShardKey(tenant, si)
	if _, err := r.Rollback(key); err != nil {
		return 0, err
	}
	sur, base, gen, err := LoadSurrogate(r, key, rng)
	if err != nil {
		return 0, err
	}
	w.Reinstall(si, sur, base)
	return gen, nil
}
