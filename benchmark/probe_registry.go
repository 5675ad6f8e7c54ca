package main

import (
	"repro/internal/registry"
)

// registryLayers reports the durable side of a traced workload: how long
// a publish took (fsync path; learn_loop/cpu_us_per_row), how long the
// replica's warm start took (setup_s), the artifact size, and the
// registry's own counters. quarantines must be 0.
func registryLayers(e *env, p *provisioned, tenant string, m metrics) {
	var pub hist
	e.tr.mu.Lock()
	for _, b := range e.tr.bufs {
		if b.name == spanPublish {
			for _, c := range b.spans {
				pub.add(c.end - c.start)
			}
		}
	}
	e.tr.mu.Unlock()
	m.set("registry.publish_ms_p50", pub.quantile(0.5)/1e6)
	m.set("registry.warm_start_ms", p.warmStartMS)
	kb := 0.0
	if h, err := p.reg.Latest(registry.ShardKey(tenant, 0)); err == nil {
		kb = float64(len(h.Data)) / 1024
	}
	m.set("registry.artifact_kb", kb)
	st := p.reg.Stats()
	m.set("registry.publishes", float64(st.Publishes))
	m.set("registry.quarantines", float64(st.Quarantines))
}
