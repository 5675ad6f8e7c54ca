package router

import (
	"time"

	"repro/internal/registry"
)

// rebalanceLocked rebuilds the ring from the live workers and
// reconciles every placement against its new owner. Caller holds pmu.
//
// A placement whose owner changed enters the moving state — the
// frontend answers Retry for its traffic — and a background mover
// pushes the tenant's mirrored artifacts to the new owner before
// committing the switch, so the first routed query after a move hits a
// warm-started model, never a retraining stall.
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
		cur := p.wk.Load()
		if p.state.Load() == placeReady && cur == newWant {
			continue // already home
		}
		if p.state.Load() == placeMoving && p.want == newWant {
			continue // a mover is already heading there
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
	backoff := reconnectBackoff
	for {
		select {
		case <-rt.quit:
			return
		default:
		}
		rt.pmu.RLock()
		stale := p.moveSeq != seq
		rt.pmu.RUnlock()
		if stale {
			return
		}
		if !target.live() {
			// The destination died before we arrived; the teardown's
			// rebalance will bump seq and retarget us. Wait it out.
			select {
			case <-rt.quit:
				return
			case <-time.After(backoff):
			}
			continue
		}
		warm, err := rt.pushTenant(p.tenant, target)
		if err != nil {
			rt.logf("router: push %s to %s: %v (retrying)", p.tenant, target.addr, err)
			select {
			case <-rt.quit:
				return
			case <-time.After(backoff):
			}
			backoff = min(2*backoff, reconnectBackoffMax)
			continue
		}
		rt.pmu.Lock()
		if p.moveSeq != seq {
			rt.pmu.Unlock()
			return
		}
		p.wk.Store(target)
		p.state.Store(placeReady)
		p.want = nil
		rt.pmu.Unlock()
		rt.moves.Add(1)
		if warm {
			rt.warmStarts.Add(1)
			rt.logf("router: %s warm-started on %s", p.tenant, target.addr)
		} else {
			rt.coldStarts.Add(1)
			rt.logf("router: %s placed cold on %s", p.tenant, target.addr)
		}
		return
	}
}

// maxShards bounds the dense shard-key probe. Fleet tenants shard far
// below this; the cap only bounds work against a corrupt mirror.
const maxShards = 64

// pushTenant ships the tenant's newest mirrored registry generations to
// target over the wire (warm=true), or asks it to place the tenant cold
// when the mirror has nothing. Shard keys are dense from 0, so the
// probe stops at the first missing shard.
func (rt *Router) pushTenant(tenant string, target *worker) (warm bool, err error) {
	ctl, err := target.control()
	if err != nil {
		return false, err
	}
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
			if perr := ctl.PushArtifact(key, gen, data); perr != nil {
				return false, perr
			}
			pushed++
		}
	}
	if pushed == 0 {
		// Nothing mirrored: cold placement (the worker constructs and
		// pretrains the tenant itself).
		if perr := ctl.PushArtifact(tenant, 0, nil); perr != nil {
			return false, perr
		}
		return false, nil
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

// mirrorOnce runs one poll cycle over the ready placements.
func (rt *Router) mirrorOnce() {
	type target struct {
		tenant string
		wk     *worker
	}
	rt.pmu.RLock()
	targets := make([]target, 0, len(rt.placements))
	for _, p := range rt.placements {
		if p.state.Load() != placeReady {
			continue
		}
		if wk := p.wk.Load(); wk != nil && wk.live() {
			targets = append(targets, target{p.tenant, wk})
		}
	}
	rt.pmu.RUnlock()
	for _, tg := range targets {
		ctl, err := tg.wk.control()
		if err != nil {
			continue
		}
		for si := 0; si < maxShards; si++ {
			key := registry.ShardKey(tg.tenant, si)
			gen, ok, err := ctl.StatArtifact(key)
			if err != nil || !ok {
				break // dense shard keys: first miss ends the tenant
			}
			if cur, ok := rt.reg.CurrentGeneration(key); ok && gen <= cur {
				continue
			}
			data, actual, ok, err := ctl.FetchArtifact(key, 0)
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
