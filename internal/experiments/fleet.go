package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// E11 exercises the multi-tenant serving fleet: the paper's "learning
// everywhere" claim realized as one process serving a surrogate for every
// layer of the workload — a potential-energy model, a tissue-transport
// stencil and an epidemic calibrator — behind one dispatch plane. Each
// tenant is a pretrained UQ-gated wrapper; concurrent per-tenant client
// pools drive independent single-point queries through the fleet, and the
// result records per-tenant throughput, coalescing width, latency
// percentiles and the fairness ratio (min/max per-tenant QPS, which a
// starvation-prone front-end would collapse toward 0).

// E11Result is the fleet serving report.
type E11Result struct {
	Tenants   []string
	QPS       []float64
	MeanBatch []float64
	P99       []time.Duration
	SurFrac   []float64 // per-tenant surrogate-served fraction
	Fairness  float64   // min/max per-tenant QPS
	TotalQPS  float64
}

// String renders the per-tenant table.
func (r *E11Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "   multi-tenant fleet: %d tenants, one dispatch plane\n", len(r.Tenants))
	fmt.Fprintf(&b, "   %-10s %12s %10s %12s %10s\n", "tenant", "queries/s", "batch", "p99", "sur-frac")
	for i, name := range r.Tenants {
		fmt.Fprintf(&b, "   %-10s %12.0f %10.1f %12v %9.1f%%\n",
			name, r.QPS[i], r.MeanBatch[i], r.P99[i].Round(time.Microsecond), 100*r.SurFrac[i])
	}
	fmt.Fprintf(&b, "   total %.0f queries/s, fairness (min/max per-tenant QPS) %.2f\n", r.TotalQPS, r.Fairness)
	return b.String()
}

// e11Tenant builds one pretrained UQ-gated wrapper over an analytic
// oracle stand-in.
func e11Tenant(rng *xrand.Rand, scale Scale, f func(x []float64) []float64) (*core.ShardedWrapper, error) {
	oracle := core.OracleFunc{In: 2, Out: 1, F: func(x []float64) ([]float64, error) {
		return f(x), nil
	}}
	factory := core.NewNNSurrogateFactory(2, 1, []int{pick(scale, 16, 32)}, 0.1, rng.Split(), func(s *core.NNSurrogate) {
		s.Epochs = pick(scale, 60, 200)
		s.MCPasses = 8
	})
	w := core.NewShardedWrapper(oracle, factory, core.ShardedConfig{
		Shards:          1,
		MinTrainSamples: 10,
		UQThreshold:     10, // wide open: the experiment measures dispatch, not gating
	})
	design := tensor.NewMatrix(pick(scale, 80, 240), 2)
	for i := 0; i < design.Rows; i++ {
		design.Set(i, 0, rng.Range(-1, 1))
		design.Set(i, 1, rng.Range(-1, 1))
	}
	if err := w.Pretrain(design); err != nil {
		return nil, err
	}
	return w, nil
}

// E11FleetServing drives the three-tenant fleet under concurrent load.
func E11FleetServing(scale Scale) (*E11Result, error) {
	rng := xrand.New(0xf1ee7)
	tenants := []struct {
		name string
		f    func(x []float64) []float64
	}{
		// Analytic stand-ins with the response shapes of the three
		// workloads: a pair-potential energy surface, a diffusive decay
		// and an epidemic peak response.
		{"potential", func(x []float64) []float64 {
			r := 0.6 + 0.5*(x[0]+1)
			ir6 := math.Pow(r, -6)
			return []float64{ir6*ir6 - ir6 + 0.1*x[1]}
		}},
		{"tissue", func(x []float64) []float64 {
			return []float64{math.Exp(-2*math.Abs(x[0])) * math.Cos(3*x[1])}
		}},
		{"epi", func(x []float64) []float64 {
			r0 := 1 + 1.5*(x[0]+1)
			return []float64{math.Tanh(r0-1) * (0.5 + 0.4*x[1])}
		}},
	}

	fl := fleet.New(fleet.Config{Coalescer: serve.Config{MaxBatch: 32}})
	defer fl.Close()
	wrappers := make([]*core.ShardedWrapper, len(tenants))
	for i, tn := range tenants {
		w, err := e11Tenant(rng, scale, tn.f)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", tn.name, err)
		}
		wrappers[i] = w
		if err := fl.Register(tn.name, w); err != nil {
			return nil, err
		}
	}

	// Fairness is measured, not assumed: every client free-runs against a
	// shared wall-clock deadline and the per-tenant completion counts are
	// compared afterwards. A dispatch plane that starved one tenant would
	// show up directly as that tenant finishing fewer queries in the
	// window (a fixed per-client query count would instead force the
	// ratio to 1.0 by construction).
	clients := pick(scale, 4, 8)
	window := time.Duration(pick(scale, 150, 1000)) * time.Millisecond
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	errs := make(chan error, len(tenants)*clients)
	t0 := time.Now()
	for ti, tn := range tenants {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(name string, seed uint64) {
				defer wg.Done()
				crng := xrand.New(seed)
				x := make([]float64, 2)
				y := make([]float64, 1)
				std := make([]float64, 1)
				// Check the clock every few queries, not every query.
				for time.Now().Before(deadline) {
					for i := 0; i < 64; i++ {
						x[0] = crng.Range(-1, 1)
						x[1] = crng.Range(-1, 1)
						if _, err := fl.QueryInto(name, x, y, std); err != nil {
							errs <- err
							return
						}
					}
				}
			}(tn.name, uint64(0xe11*(ti+1)+c))
		}
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	close(errs)
	for err := range errs {
		return nil, err
	}

	res := &E11Result{}
	stats := fl.Stats()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	minQ, maxQ := math.Inf(1), 0.0
	for _, name := range names {
		st := stats[name]
		var wi int
		for i, tn := range tenants {
			if tn.name == name {
				wi = i
			}
		}
		led := wrappers[wi].Ledger()
		qps := float64(st.Queries) / elapsed
		res.Tenants = append(res.Tenants, name)
		res.QPS = append(res.QPS, qps)
		res.MeanBatch = append(res.MeanBatch, st.MeanBatch)
		res.P99 = append(res.P99, st.P99)
		res.SurFrac = append(res.SurFrac, led.SurrogateFraction())
		res.TotalQPS += qps
		minQ = math.Min(minQ, qps)
		maxQ = math.Max(maxQ, qps)
	}
	if maxQ > 0 {
		res.Fairness = minQ / maxQ
	}
	return res, nil
}
