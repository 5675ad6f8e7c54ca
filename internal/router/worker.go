package router

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/registry"
	"repro/internal/xrand"
)

// WorkerHooks is the worker-process side of the dispatch tier: it plugs
// into netserve.Config as both the ArtifactStore (serving the router's
// mirror fetches straight from the local registry's mmap) and the
// ArtifactSink (accepting placement pushes). A pushed artifact replays
// through the registry's atomic publish path and installs into the
// live wrapper, so a tenant moved here by a failover serves its last
// learned generation with zero retraining; a cold push constructs and
// pretrains the tenant from scratch.
type WorkerHooks struct {
	// Fleet is the worker's serving fleet. Required.
	Fleet *fleet.Fleet
	// Registry is the worker's local artifact registry. Required.
	Registry *registry.Registry
	// Make constructs a serving wrapper for a newly placed tenant.
	// Required for placement pushes; a worker without it answers install
	// errors (its tenant set is fixed at boot).
	Make func(tenant string) (*core.ShardedWrapper, error)
	// Pretrain seeds a cold-placed tenant with oracle data before it
	// registers. Nil skips pretraining (the wrapper trains online).
	Pretrain func(tenant string, w *core.ShardedWrapper) error
	// Logf observes placements; nil discards.
	Logf func(format string, args ...any)

	mu   sync.Mutex
	have map[string]bool
}

func (h *WorkerHooks) logf(format string, args ...any) {
	if h.Logf != nil {
		h.Logf(format, args...)
	}
}

// decodeSeed seeds the rng a pushed artifact is decoded with. It reaches
// no answer: MC-dropout masks hash from the artifact's own seed, and the
// rng only seeds Train, which no installed generation runs (a refit is a
// fresh factory product).
const decodeSeed = 0x90a7e4

// FetchArtifact implements netserve.ArtifactStore against the local
// registry (zero-copy: the returned bytes alias the registry's mmap,
// which the server splices to the socket without copying).
func (h *WorkerHooks) FetchArtifact(key string, gen uint64) ([]byte, uint64, bool, error) {
	return h.Registry.FetchArtifact(key, gen)
}

// StatArtifact implements netserve.ArtifactStore.
func (h *WorkerHooks) StatArtifact(key string) (uint64, bool) {
	return h.Registry.StatArtifact(key)
}

// InstallArtifact implements netserve.ArtifactSink. A nil data is a
// cold placement of the tenant named by key; otherwise key is a shard
// key whose bytes are replayed into the local registry and installed
// into the tenant's live wrapper.
func (h *WorkerHooks) InstallArtifact(key string, gen uint64, data []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.have == nil {
		h.have = make(map[string]bool)
		for _, name := range h.Fleet.Tenants() {
			h.have[name] = true
		}
	}
	if data == nil {
		return h.placeColdLocked(key)
	}
	tenant, si, ok := registry.ParseShardKey(key)
	if !ok {
		return fmt.Errorf("router: artifact key %q is not a shard key", key)
	}
	applied, err := h.Registry.ReplayPublish(key, gen, data)
	if err != nil {
		return fmt.Errorf("router: replay %s gen %d: %w", key, gen, err)
	}
	if !h.have[tenant] {
		// First shard of a warm placement: construct the wrapper and bind
		// it — BindRegistry warm-starts every shard from the generations
		// just replayed (and any earlier push). No pretraining.
		if err := h.placeWarmLocked(tenant); err != nil {
			return err
		}
		return nil
	}
	if !applied {
		return nil // stale generation; the live model is already newer
	}
	// The tenant is already serving here: install the fresh generation
	// directly. WarmStart wins only on a shard with no live training;
	// Reinstall force-publishes over one that has (without re-firing the
	// publish hook — the registry already holds this generation).
	return h.installShardLocked(tenant, si, data)
}

func (h *WorkerHooks) placeColdLocked(tenant string) error {
	if h.have[tenant] {
		return nil // idempotent: a retried push finds the tenant serving
	}
	if h.Make == nil {
		return fmt.Errorf("router: worker cannot place tenant %q (no constructor)", tenant)
	}
	w, err := h.Make(tenant)
	if err != nil {
		return fmt.Errorf("router: make %q: %w", tenant, err)
	}
	// Bind before pretraining so the generations pretraining publishes
	// land in the local registry (the publish hook is part of the bind).
	if _, err := h.bindLocked(tenant, w); err != nil {
		return err
	}
	if h.Pretrain != nil {
		if err := h.Pretrain(tenant, w); err != nil {
			h.Fleet.Deregister(tenant)
			delete(h.have, tenant)
			return fmt.Errorf("router: pretrain %q: %w", tenant, err)
		}
	}
	h.Fleet.SetPlacement(tenant, fleet.Placement{Source: "cold"})
	h.logf("router: worker placed %q cold", tenant)
	return nil
}

func (h *WorkerHooks) placeWarmLocked(tenant string) error {
	if h.Make == nil {
		return fmt.Errorf("router: worker cannot place tenant %q (no constructor)", tenant)
	}
	w, err := h.Make(tenant)
	if err != nil {
		return fmt.Errorf("router: make %q: %w", tenant, err)
	}
	warmed, err := h.bindLocked(tenant, w)
	if err != nil {
		return err
	}
	gen, _ := h.Registry.CurrentGeneration(registry.ShardKey(tenant, 0))
	h.Fleet.SetPlacement(tenant, fleet.Placement{Source: "warm", Generation: gen, WarmShards: warmed})
	h.logf("router: worker placed %q warm (%d shards) from pushed artifacts", tenant, warmed)
	return nil
}

func (h *WorkerHooks) bindLocked(tenant string, w *core.ShardedWrapper) (warmed int, err error) {
	if err := h.Fleet.Register(tenant, w); err != nil {
		return 0, fmt.Errorf("router: register %q: %w", tenant, err)
	}
	warmed, err = h.Fleet.BindRegistry(tenant, fleet.RegistryConfig{Registry: h.Registry})
	if err != nil {
		h.Fleet.Deregister(tenant)
		return 0, fmt.Errorf("router: bind %q: %w", tenant, err)
	}
	h.have[tenant] = true
	return warmed, nil
}

// installShardLocked decodes a freshly replayed artifact and installs
// it on the live wrapper's shard.
func (h *WorkerHooks) installShardLocked(tenant string, si int, data []byte) error {
	w, ok := h.wrapper(tenant)
	if !ok {
		return nil // tenant serves a non-sharded backend; registry replay alone suffices
	}
	if si < 0 || si >= w.NumShards() {
		return fmt.Errorf("router: shard %d out of range for tenant %q", si, tenant)
	}
	sur, base, err := core.DecodeNNSurrogate(data, xrand.New(decodeSeed))
	if err != nil {
		return fmt.Errorf("router: decode pushed artifact for %s/%d: %w", tenant, si, err)
	}
	wantIn, wantOut := w.Dims()
	if in, out := sur.Dims(); in != wantIn || out != wantOut {
		return fmt.Errorf("router: pushed artifact is %d→%d, tenant %q serves %d→%d", in, out, tenant, wantIn, wantOut)
	}
	if !w.WarmStart(si, sur, base) {
		w.Reinstall(si, sur, base)
	}
	return nil
}

// wrapper digs the tenant's sharded wrapper out of the fleet.
func (h *WorkerHooks) wrapper(tenant string) (*core.ShardedWrapper, bool) {
	b, err := h.Fleet.Backend(tenant)
	if err != nil {
		return nil, false
	}
	w, ok := b.(*core.ShardedWrapper)
	return w, ok
}
