package main

import (
	"fmt"
	"math"
	"os"
	"time"
)

// The ladder is the per-stage latency budget ROADMAP item 1 asks for,
// taken from outside before any in-program stamps exist: the
// routed_closed request stream, at the same 64-caller concurrency, is
// entered at nn, core, serve, fleet, netserve (direct) and router in
// turn. <layer>.added_p50_us is a rung's p50 minus the rung below, so
// nn.rung_p50_us plus the five added_p50_us telescope to the routed p50.
// It runs once, in the traced run of routed_closed, on that run's own
// stack: the top rung is the traced workload measurement itself, the
// lower rungs enter worker 0's layers after it. A rung can come out
// negative: entering higher up also spreads the callers differently (the
// router rung has two workers' coalescers where the netserve rung has
// one), and the ladder reports that as it is.
type rung struct {
	layer string
	call  func(c int) rowCall
	p50   float64 // µs, over the rung's whole run
	p99   float64
	rate  float64 // rows/s
}

const (
	// ladderShare is the share of --seconds each lower rung measures for.
	ladderShare = 0.06
	// plainShare is the share the undecorated stack is measured for.
	plainShare = 0.1
)

func runLadder(e *env, s *routedStack, top *result, m metrics) error {
	mo, err := buildServingNN()
	if err != nil {
		return err
	}
	run := func(p *provisioned, call func(c int) rowCall, share float64, trace bool) (*result, error) {
		res := closedLoop(rowRun{
			seed: e.seed ^ 0x1add, dur: e.dur(share), window: time.Hour, sloNS: math.MaxInt64,
			tenants: servingTenants, trace: trace, call: call,
		}, closedCallers)
		if res.failed() != 0 || res.ok == 0 {
			return nil, fmt.Errorf("ladder: %d of %d rows failed", res.failed(), res.attempted)
		}
		if p != nil {
			if err := p.bg.get(); err != nil {
				return nil, err
			}
		}
		return res, nil
	}

	serveCall, closeServe := serveRung(s)
	defer closeServe()
	netCall, closeNet, err := netserveRung(s)
	if err != nil {
		return err
	}
	defer closeNet()
	rungs := []*rung{
		{layer: "nn", call: nnRung(mo)},
		{layer: "core", call: coreRung(s)},
		{layer: "serve", call: serveCall},
		{layer: "fleet", call: fleetRung(s)},
		{layer: "netserve", call: netCall},
		{layer: "router"},
	}
	var below *rung
	for _, r := range rungs {
		var pooled hist
		if r.call == nil {
			// The top rung: the traced routed_closed measurement.
			for _, w := range top.wins {
				for i := range w.wins {
					pooled.merge(&w.wins[i])
				}
			}
			r.rate = float64(top.ok) / top.wall.Seconds()
		} else {
			e.tr.reset(spanBackend)
			res, err := run(s.prov, r.call, ladderShare, true)
			if err != nil {
				return fmt.Errorf("%s rung: %w", r.layer, err)
			}
			pooled = res.win.wins[0]
			r.rate = float64(res.ok) / res.wall.Seconds()
			if r.layer == "serve" {
				m.set("serve.gather_wait_p50_us", gatherWaits(res.roots, e.tr.bufs, e.tr.epoch).quantile(0.5)/1e3)
			}
		}
		r.p50, r.p99 = pooled.quantile(0.5)/1e3, pooled.quantile(0.99)/1e3
		m.set(r.layer+".rung_rows_per_s", r.rate)
		if below == nil {
			m.set("nn.rung_p50_us", r.p50)
		} else {
			m.set(r.layer+".added_p50_us", r.p50-below.p50)
		}
		switch r.layer {
		case "serve", "netserve", "router":
			m.set(r.layer+".added_p99_us", r.p99-below.p99)
		}
		fmt.Fprintf(os.Stderr, "  rung %-9s p50 %9.2f us  p99 %9.2f us  %10.0f rows/s\n", r.layer, r.p50, r.p99, r.rate)
		below = r
	}

	// The same topology once without any decorator installed: the
	// difference to the traced run is what tracing costs.
	plain := *e
	plain.tr = nil
	ps, err := setupRouted(&plain)
	if err != nil {
		return err
	}
	untraced, err := run(ps.prov, ps.wireCall(ps.clients), plainShare, false)
	ps.close()
	if err != nil {
		return err
	}
	m.set("trace.overhead_share", 1-below.rate/(float64(untraced.ok)/untraced.wall.Seconds()))

	nnRowProbes(m, mo)
	coreRowProbe(m, s.wrappers[0][0])
	return nil
}

// checkLadder holds the ladder, when the run has one, against the run's
// reported latency: the rungs must sum to within 10 % of the traced
// routed_closed latency_p50_us, or the budget is not a budget of it.
func checkLadder(m metrics, sum *winSummary) (problems []string) {
	if _, ok := m["nn.rung_p50_us"]; !ok {
		return nil
	}
	rungs := m["nn.rung_p50_us"].Value
	for _, l := range []string{"core", "serve", "fleet", "netserve", "router"} {
		rungs += m[l+".added_p50_us"].Value
	}
	off := rungs/sum.p50us - 1
	fmt.Fprintf(os.Stderr, "  ladder: rungs sum to %.2f us against the traced routed_closed p50 of %.2f us (%+.1f %%)\n", rungs, sum.p50us, 100*off)
	if math.Abs(off) > 0.1 {
		problems = append(problems, fmt.Sprintf("ladder rungs sum to %.2f us, more than 10 %% from the traced p50 %.2f us", rungs, sum.p50us))
	}
	return problems
}
