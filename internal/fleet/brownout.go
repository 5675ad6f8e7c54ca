package fleet

// This file implements the fleet-level brownout controller: graceful
// degradation as the third leg of overload defense, after admission
// shedding (ErrOverloaded) and deadline shedding (expired-at-admission).
// Shedding throws queries away; a brownout keeps answering every query
// and pays for it with fidelity instead — stepping an overloaded
// tenant's backend down the core.Brownout* ladder (prefer the int8
// quantized program → cap MC-dropout passes → single-pass UQ-off) and
// back up once the tenant holds healthy. Every transition is counted in
// TenantStats, so an operator watching /statsz sees exactly when and how
// far a tenant's answers were degraded.

import (
	"time"

	"repro/internal/core"
)

// BrownoutConfig tunes the fleet's brownout controller. The controller
// is enabled by setting at least one SLO signal (P99SLO or MaxShedRate);
// it evaluates every tenant each brownoutInterval and acts only on
// backends that expose SetBrownoutLevel/BrownoutLevel (core.ShardedWrapper
// does); other backends are left alone.
type BrownoutConfig struct {
	// P99SLO is the tenant latency objective: a measured p99 (over the
	// tenant's recent-latency ring) above it is a breach. 0 disables the
	// latency signal.
	P99SLO time.Duration
	// MaxShedRate is the tolerated fraction of admission-shed queries
	// per evaluation interval, in (0, 1): rejected/(completed+rejected)
	// above it is a breach. 0 disables the shed signal.
	MaxShedRate float64
}

func (c BrownoutConfig) enabled() bool { return c.P99SLO > 0 || c.MaxShedRate > 0 }

const (
	// brownoutStepDown and brownoutStepUp are how many consecutive
	// breaching / healthy intervals trigger one ladder transition: quick to
	// give up fidelity under pressure, deliberately slow to spend it again
	// — recovery oscillation is worse than a few extra intervals of cheap
	// answers. The controller steps as far as core.BrownoutNoUQ, the bottom.
	brownoutStepDown = 2
	brownoutStepUp   = 8
	// brownoutMinSamples is the fewest admission attempts in an interval
	// for the shed-rate signal to count, so an idle tenant's occasional
	// rejection cannot brown it out.
	brownoutMinSamples = 16
)

// brownoutInterval is the controller's evaluation cadence. A variable only
// so the tests can reach it.
var brownoutInterval = 250 * time.Millisecond

// degradable is the backend face the controller drives. It is matched
// structurally so any backend — not just the core wrappers — can opt in.
type degradable interface {
	SetBrownoutLevel(level int)
	BrownoutLevel() int
}

// brownoutWindow is the controller's per-tenant delta state between
// evaluations.
type brownoutWindow struct {
	lastQ, lastR    int64
	breach, healthy int
}

// brownoutLoop is the controller goroutine: started by New when the
// config enables a signal, stopped by Close.
func (f *Fleet) brownoutLoop() {
	defer close(f.bdone)
	cfg := f.cfg.Brownout
	tick := time.NewTicker(brownoutInterval)
	defer tick.Stop()
	wins := make(map[*tenant]*brownoutWindow)
	for {
		select {
		case <-f.bstop:
			return
		case <-tick.C:
		}
		f.mu.RLock()
		ts := make([]*tenant, 0, len(f.tenants))
		for _, t := range f.tenants {
			ts = append(ts, t)
		}
		f.mu.RUnlock()
		live := make(map[*tenant]bool, len(ts))
		for _, t := range ts {
			live[t] = true
			d, ok := t.backend.(degradable)
			if !ok {
				continue
			}
			w := wins[t]
			if w == nil {
				// First sighting: record the baseline and start evaluating
				// next interval — the since-registration totals are not an
				// interval's worth of signal.
				wins[t] = &brownoutWindow{lastQ: t.queries.Load(), lastR: t.rejected.Load()}
				continue
			}
			q, r := t.queries.Load(), t.rejected.Load()
			dq, dr := q-w.lastQ, r-w.lastR
			w.lastQ, w.lastR = q, r
			breach := false
			if cfg.MaxShedRate > 0 && dq+dr >= brownoutMinSamples {
				if float64(dr)/float64(dq+dr) > cfg.MaxShedRate {
					breach = true
				}
			}
			if cfg.P99SLO > 0 && dq > 0 {
				if _, p99 := t.latPercentiles(); p99 > cfg.P99SLO {
					breach = true
				}
			}
			if breach {
				w.breach++
				w.healthy = 0
			} else {
				w.healthy++
				w.breach = 0
			}
			lvl := int(t.brownout.Load())
			switch {
			case w.breach >= brownoutStepDown && lvl < core.BrownoutNoUQ:
				t.setBrownout(d, lvl+1)
				w.breach = 0
			case w.healthy >= brownoutStepUp && lvl > 0:
				t.setBrownout(d, lvl-1)
				w.healthy = 0
			}
		}
		for t := range wins {
			if !live[t] {
				delete(wins, t)
			}
		}
	}
}

// setBrownout moves the tenant's backend to level and counts the
// transition's direction.
func (t *tenant) setBrownout(d degradable, level int) {
	old := int(t.brownout.Swap(int32(level)))
	d.SetBrownoutLevel(level)
	if level > old {
		t.bdowns.Add(1)
	} else if level < old {
		t.bups.Add(1)
	}
}
