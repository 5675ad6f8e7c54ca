package fleet

// This file binds tenants to the crash-safe artifact registry: a bound
// tenant warm-starts from its newest durable generation (serving
// immediately, zero retraining), persists every generation its wrapper
// publishes, and — when a rollback factor is armed — runs a post-publish
// drift watch that automatically rolls back a generation whose drift
// ratio regresses past the factor, reinstalling the predecessor from
// disk. Registry generation and publish/rollback/quarantine counters
// surface through TenantStats (and from there /statsz).

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/xrand"
)

// RegistryConfig binds one tenant to an artifact registry under the
// tenant's fleet name.
type RegistryConfig struct {
	// Registry is the open registry to bind against. Required.
	Registry *registry.Registry
	// RollbackFactor, when positive, arms the post-publish drift watch:
	// a shard whose drift ratio (residual EWMA over publish-time
	// baseline, see core.ShardedConfig.DriftFactor) reaches this factor
	// is rolled back to its previous registry generation. Set it above
	// the wrapper's own DriftFactor so a refit is the first response and
	// rollback the defense against a generation that made things worse.
	RollbackFactor float64
	// OnError observes background publish / warm-start / rollback
	// failures. Failures never disturb serving; nil discards them.
	OnError func(err error)
}

const (
	// driftWatchInterval is the drift watch's cadence.
	driftWatchInterval = 250 * time.Millisecond
	// restoreSeed seeds the rng a restored surrogate is decoded with. It
	// reaches no answer: MC-dropout masks hash from the artifact's own
	// seed, and the rng only seeds Train, which no restored generation
	// runs (a refit is a fresh factory product).
	restoreSeed = 0x1e57a9
)

// registryBinding is one tenant's live registry attachment.
type registryBinding struct {
	reg    *registry.Registry
	key    string
	shards int
	unhook func()
	stop   chan struct{}
	done   chan struct{}
}

// close stops the drift watch (if armed) and detaches the publish hook.
func (b *registryBinding) close() {
	if b.stop != nil {
		close(b.stop)
		<-b.done
	}
	b.unhook()
}

// stats sums the binding's registry counters over its shard keys and
// reports the newest committed generation across them.
func (b *registryBinding) stats() (gen uint64, s registry.Stats) {
	for si := 0; si < b.shards; si++ {
		key := registry.ShardKey(b.key, si)
		if g, ok := b.reg.CurrentGeneration(key); ok && g > gen {
			gen = g
		}
		ns := b.reg.NameStats(key)
		s.Publishes += ns.Publishes
		s.Rollbacks += ns.Rollbacks
		s.Quarantines += ns.Quarantines
		s.Opens += ns.Opens
	}
	return gen, s
}

// BindRegistry attaches the named tenant to a registry: its backend
// warm-starts from the newest durable generations (the returned count is
// how many shards restored a model), every generation it publishes from
// then on is persisted, and, with RollbackFactor set, the drift watch
// auto-rolls-back regressions. The backend must be a
// *core.ShardedWrapper. The binding lives until the tenant is
// deregistered or the fleet closes.
func (f *Fleet) BindRegistry(name string, cfg RegistryConfig) (warmed int, err error) {
	if cfg.Registry == nil {
		return 0, errors.New("fleet: RegistryConfig.Registry is required")
	}
	t := f.lookup(name)
	if t == nil {
		f.mu.RLock()
		closed := f.closed
		f.mu.RUnlock()
		if closed {
			return 0, ErrClosed
		}
		return 0, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	if t.binding.Load() != nil {
		return 0, fmt.Errorf("fleet: tenant %q is already bound to a registry", name)
	}
	onErr := func(what string, err error) {
		if cfg.OnError != nil {
			cfg.OnError(fmt.Errorf("fleet: tenant %q registry %s: %w", name, what, err))
		}
	}
	rng := xrand.New(restoreSeed)
	w, ok := t.backend.(*core.ShardedWrapper)
	if !ok {
		return 0, fmt.Errorf("fleet: tenant %q backend %T cannot bind a registry", name, t.backend)
	}
	b := &registryBinding{reg: cfg.Registry, key: name, shards: w.NumShards()}
	warmed = registry.WarmStartSharded(cfg.Registry, name, w, rng, func(si int, err error) {
		onErr(fmt.Sprintf("warm-start shard %d", si), err)
	})
	w.SetPublishHook(registry.Publisher(cfg.Registry, name, func(si int, err error) {
		onErr(fmt.Sprintf("publish shard %d", si), err)
	}))
	b.unhook = func() { w.SetPublishHook(nil) }
	if cfg.RollbackFactor > 0 {
		b.stop = make(chan struct{})
		b.done = make(chan struct{})
		go b.driftWatch(w, cfg.RollbackFactor, rng, onErr)
	}
	t.binding.Store(b)
	return warmed, nil
}

// driftWatch is the binding's background loop: each tick it scans the
// wrapper's shard status and rolls back any shard whose drift ratio has
// regressed past the configured factor — once per observed wrapper
// generation, so a shard that keeps drifting after its rollback is
// rolled back again only when a newer (still-bad) generation publishes
// or the reinstalled model itself regresses.
func (b *registryBinding) driftWatch(w *core.ShardedWrapper, factor float64, rng *xrand.Rand, onErr func(string, error)) {
	defer close(b.done)
	tick := time.NewTicker(driftWatchInterval)
	defer tick.Stop()
	rolled := make([]int, w.NumShards())
	for i := range rolled {
		rolled[i] = -2 // below any real generation (-1 = warm-started)
	}
	for {
		select {
		case <-b.stop:
			return
		case <-tick.C:
		}
		for si, st := range w.Status() {
			if !st.Drifted || st.DriftRatio < factor || st.Generation == rolled[si] {
				continue
			}
			rolled[si] = st.Generation
			if _, err := registry.RollbackShard(b.reg, b.key, si, w, rng); err != nil {
				// Nothing to roll back to is a normal condition (first
				// generation, or every predecessor GC'd), not a failure.
				if !errors.Is(err, registry.ErrNoPredecessor) && !errors.Is(err, registry.ErrNotFound) {
					onErr(fmt.Sprintf("rollback shard %d", si), err)
				}
			}
		}
	}
}
