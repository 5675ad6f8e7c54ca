package main

import (
	"time"

	"repro/internal/core"
)

// routed_open and routed_closed drive the same topology (stack.go) two
// ways. Open: independent users at a fixed rate well under a tenth of
// capacity, so traffic is sparse and serve's solo-bypass/gather-wait,
// netserve's flush coalescing and the router's burst forwarding set the
// latency while arithmetic is ~1 % — framing, flush and deadline work
// must show here, kernel work must not. Closed: 64 simulation ranks each
// blocked on its lookup, the same layers dense, batched and saturated —
// a latency win on routed_open bought by giving up coalescing shows here
// as lost rows_per_s. tensor/nn are all but idle in both.
const (
	// openRate is the offered load of routed_open in rows/s: a constant,
	// never adapted at run time. Sparse traffic costs 35–50 µs of CPU a
	// row on the 2-core reference box against 5–8 µs saturated, so this
	// keeps 0.7–1.0 of its 2 cores busy; the issue's 30 000 rows/s would
	// keep 1.0–1.5 busy, and when the box runs slow the loop tips into a
	// growing backlog.
	openRate      = 20000.0
	closedCallers = 64
)

type routedWL struct {
	*routedStack
	open  bool
	sloNS int64
	base  coreBase
}

func setupRoutedOpen(e *env, sloNS int64) (stack, error)   { return setupRoutedWL(e, sloNS, true) }
func setupRoutedClosed(e *env, sloNS int64) (stack, error) { return setupRoutedWL(e, sloNS, false) }

func setupRoutedWL(e *env, sloNS int64, open bool) (stack, error) {
	s, err := setupRouted(e)
	if err != nil {
		return nil, err
	}
	return &routedWL{routedStack: s, open: open, sloNS: sloNS}, nil
}

func (w *routedWL) allWrappers() []*core.ShardedWrapper {
	return append(append([]*core.ShardedWrapper(nil), w.wrappers[0]...), w.wrappers[1]...)
}

func (w *routedWL) measure(seed uint64, d time.Duration) *result {
	w.base = coreSnapshot(w.prov, w.allWrappers()...)
	rr := rowRun{
		seed: seed, dur: d, window: routedWindow, sloNS: w.sloNS,
		tenants: servingTenants, trace: w.e.tr != nil, call: w.wireCall(w.clients),
	}
	if w.open {
		return openLoop(rr, routedConns, openRate)
	}
	return closedLoop(rr, closedCallers)
}

func (w *routedWL) background() error { return w.prov.bg.get() }

func (w *routedWL) layers(res *result, m metrics) error {
	serveLayers(w.e, w.routedStack, res, m)
	fleetLayers(w.routedStack, m)
	netserveLayers(w.routedStack, res, m)
	routerLayers(w.routedStack, m)
	coreLayers(w.e, res, m, w.allWrappers(), w.base, w.prov)
	registryLayers(w.e, w.prov, w.names[0], m)
	if w.open {
		m.set("loadgen.late_p99_us", res.late.quantile(0.99)/1e3)
		return nil
	}
	return runLadder(w.e, w.routedStack, res, m)
}
