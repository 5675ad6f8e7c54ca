package main

import (
	"repro/internal/core"
)

// fleetRung enters the request stream at fleet: admission, tenant lookup
// and the fleet's own per-tenant coalescers, in process.
func fleetRung(s *routedStack) func(c int) rowCall {
	return func(int) rowCall {
		return func(tenant int, x, y, std []float64) (bool, error) {
			res, err := s.fleets[0].QueryInto(s.names[tenant], x, y, std)
			return err == nil && res.Src == core.FromSurrogate, err
		}
	}
}

// fleetLayers reports admission sheds and brownout controller steps over
// both workers' fleets; both are expected to be 0 and would move
// routed_*/slo_ok_share.
func fleetLayers(s *routedStack, m metrics) {
	var queries, rejected, steps int64
	for _, fl := range s.fleets {
		for _, st := range fl.Stats() {
			queries += st.Queries
			rejected += st.Rejected
			steps += st.BrownoutDowns + st.BrownoutUps
		}
	}
	m.set("fleet.shed_share", ratio(float64(rejected), float64(queries+rejected)))
	m.set("fleet.brownout_steps", float64(steps))
}
