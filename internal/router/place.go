package router

import (
	"errors"
	"time"

	"repro/internal/netserve"
	"repro/internal/registry"
)

// rebalanceLocked rebuilds the ring from the live workers and
// reconciles every placement against its new owner. Caller holds pmu.
//
// A provisioned placement whose owner changed enters the moving state —
// the frontend answers Retry for its traffic — and a background mover
// pushes the tenant's mirrored artifacts to the new owner before
// committing the switch, so the first routed query after a move hits a
// warm-started model, never a retraining stall. An on-demand placement
// switches owner at once, and so does a provisioned one whose new owner
// already refused its push on the connection it still holds (refuse).
func (rt *Router) rebalanceLocked() {
	ring := buildRing(rt.workers, ringReplicas)
	rt.ring.Store(ring)
	rt.rehashes.Add(1)
	for _, p := range rt.placements {
		newWant := ring.owner([]byte(p.tenant))
		if newWant == nil {
			// No live workers at all: park the placement.
			p.want = nil
			p.moveSeq++
			p.wk.Store(nil)
			p.state.Store(placeDown)
			continue
		}
		if !p.provisioned {
			// Routed on demand: follow the ring, push nothing.
			p.wk.Store(newWant)
			p.state.Store(placeReady)
			continue
		}
		cur := p.wk.Load()
		if p.state.Load() == placeReady && cur == newWant {
			continue // already home
		}
		if p.state.Load() == placeMoving && p.want == newWant {
			continue // a mover is already heading there
		}
		if p.refused != nil && p.refused == newWant.conn.Load() {
			// That owner takes no pushes: follow the ring without one.
			p.want = nil
			p.moveSeq++
			p.wk.Store(newWant)
			p.state.Store(placeReady)
			continue
		}
		p.want = newWant
		p.moveSeq++
		p.state.Store(placeMoving)
		rt.bg.Add(1)
		go rt.move(p, newWant, p.moveSeq)
	}
}

// move pushes tenant state to target and commits the placement once the
// worker has acknowledged the install. seq fences stale movers: a later
// rebalance bumps moveSeq and this mover abandons silently.
func (rt *Router) move(p *placement, target *worker, seq uint64) {
	defer rt.bg.Done()
	for backoff := reconnectBackoff; ; backoff = min(2*backoff, reconnectBackoffMax) {
		rt.pmu.RLock()
		stale := p.moveSeq != seq
		rt.pmu.RUnlock()
		if stale {
			return
		}
		// A destination that died before we arrived is waited out: the
		// rebalance its death causes bumps seq and retargets us.
		if target.live() {
			cn := target.conn.Load()
			warm, err := rt.pushTenant(p.tenant, cn)
			if err == nil {
				rt.commit(p, target, seq, warm)
				return
			}
			if errors.Is(err, netserve.ErrNoArtifactHook) {
				rt.refuse(p, target, cn, seq)
				return
			}
			rt.logf("router: push %s to %s: %v (retrying)", p.tenant, target.addr, err)
		}
		select {
		case <-rt.quit:
			return
		case <-time.After(backoff):
		}
	}
}

// commit switches the placement to target once its push is acknowledged,
// unless a later rebalance has fenced this mover off.
func (rt *Router) commit(p *placement, target *worker, seq uint64, warm bool) {
	rt.pmu.Lock()
	if p.moveSeq != seq {
		rt.pmu.Unlock()
		return
	}
	p.wk.Store(target)
	p.state.Store(placeReady)
	p.want = nil
	p.refused = nil
	rt.pmu.Unlock()
	rt.moves.Add(1)
	if warm {
		rt.warmStarts.Add(1)
		rt.logf("router: %s warm-started on %s", p.tenant, target.addr)
	} else {
		rt.coldStarts.Add(1)
		rt.logf("router: %s placed cold on %s", p.tenant, target.addr)
	}
}

// refuse places the tenant on target without a push once target has
// refused it over cn for want of an install hook. No retry changes that
// answer, and retrying would answer the tenant's traffic Retry for good;
// the owner serves the traffic as it can (UnknownTenant if it does not
// serve the tenant). The tenant stays provisioned: a rehash to any other
// owner, or to this one on a new connection, pushes it again.
func (rt *Router) refuse(p *placement, target *worker, cn *netserve.Conn, seq uint64) {
	rt.pmu.Lock()
	defer rt.pmu.Unlock()
	if p.moveSeq != seq {
		return
	}
	p.refused = cn
	p.want = nil
	p.wk.Store(target)
	p.state.Store(placeReady)
	rt.logf("router: %s placed on %s without a push: it takes no pushes", p.tenant, target.addr)
}

// maxShards bounds the dense shard-key probe. Fleet tenants shard far
// below this; the cap only bounds work against a corrupt mirror.
const maxShards = 64

// pushTenant ships the tenant's newest mirrored registry generations
// over the target worker's connection (warm=true), or asks it to place
// the tenant cold when the mirror has nothing. Shard keys are dense from
// 0, so the probe stops at the first missing shard. An error leaves the
// retry to the mover: installs are replay-idempotent.
func (rt *Router) pushTenant(tenant string, cn *netserve.Conn) (warm bool, err error) {
	pushed := 0
	if rt.reg != nil {
		for si := 0; si < maxShards; si++ {
			key := registry.ShardKey(tenant, si)
			data, gen, ok, ferr := rt.reg.FetchArtifact(key, 0)
			if ferr != nil {
				return false, ferr
			}
			if !ok {
				break
			}
			if perr := cn.PushArtifact(key, gen, data); perr != nil {
				return false, perr
			}
			pushed++
		}
	}
	if pushed == 0 {
		// Nothing mirrored: cold placement (the worker constructs and
		// pretrains the tenant itself).
		return false, cn.PushArtifact(tenant, 0, nil)
	}
	return true, nil
}

// mirrorLoop keeps the router's follower registry current: it polls
// each ready placement's owner for new generations (cheap stat frames)
// and replays fresh artifacts through the registry's atomic publish
// path. The mirror is what makes failover warm: when a worker dies, the
// surviving owner is pushed the generations mirrored here.
func (rt *Router) mirrorLoop() {
	defer rt.bg.Done()
	tick := time.NewTicker(mirrorInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.quit:
			return
		case <-tick.C:
		}
		rt.mirrorOnce()
	}
}

// mirrorOnce runs one poll cycle over the ready placements, on each
// owner's connection. A failed call skips to the next shard or tenant;
// the next cycle is the retry.
func (rt *Router) mirrorOnce() {
	type target struct {
		tenant string
		cn     *netserve.Conn
	}
	rt.pmu.RLock()
	targets := make([]target, 0, len(rt.placements))
	for _, p := range rt.placements {
		if p.state.Load() != placeReady {
			continue
		}
		if wk := p.wk.Load(); wk != nil && wk.live() {
			targets = append(targets, target{p.tenant, wk.conn.Load()})
		}
	}
	rt.pmu.RUnlock()
	for _, tg := range targets {
		for si := 0; si < maxShards; si++ {
			key := registry.ShardKey(tg.tenant, si)
			gen, ok, err := tg.cn.StatArtifact(key)
			if err != nil || !ok {
				break // dense shard keys: first miss ends the tenant
			}
			if cur, ok := rt.reg.CurrentGeneration(key); ok && gen <= cur {
				continue
			}
			data, actual, ok, err := tg.cn.FetchArtifact(key, 0)
			if err != nil || !ok {
				continue
			}
			applied, err := rt.reg.ReplayPublish(key, actual, data)
			if err != nil {
				rt.logf("router: mirror replay %s gen %d: %v", key, actual, err)
				continue
			}
			if applied {
				rt.mirrorGens.Add(1)
			}
		}
	}
}
