package core

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

func TestAutotunerSelectsLargestAcceptableControl(t *testing.T) {
	rng := xrand.New(23)
	// Ground truth: quality = 1 if dt <= 0.1*param else degrades linearly.
	quality := func(param, dt float64) float64 {
		limit := 0.1 * param
		if dt <= limit {
			return 1
		}
		return 1 - 5*(dt-limit)/limit
	}
	const n = 800
	x := tensor.NewMatrix(n, 2)
	y := tensor.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		p := rng.Range(1, 3)
		dt := rng.Range(0.01, 0.6)
		x.Set(i, 0, p)
		x.Set(i, 1, dt)
		y.Set(i, 0, quality(p, dt))
	}
	s := NewNNSurrogate(2, 1, []int{24, 24}, 0, rng)
	s.Epochs = 300
	tuner := NewAutotuner(s, 1, 1)
	if err := tuner.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	cands := tensor.NewMatrix(30, 1)
	for i := 0; i < 30; i++ {
		cands.Set(i, 0, 0.01+float64(i)*0.02)
	}
	ctl, err := tuner.Tune([]float64{2.0}, cands,
		func(q []float64) bool { return q[0] > 0.9 },
		func(c []float64) float64 { return c[0] })
	if err != nil {
		t.Fatal(err)
	}
	// True stability limit for param=2 is dt=0.2; accept generous slack for
	// a learned boundary.
	if ctl[0] < 0.1 || ctl[0] > 0.32 {
		t.Fatalf("tuned dt %g outside plausible band around 0.2", ctl[0])
	}
}

func TestAutotunerNoCandidatePasses(t *testing.T) {
	rng := xrand.New(29)
	s := NewNNSurrogate(1, 1, []int{8}, 0, rng)
	s.Epochs = 50
	x := tensor.NewMatrix(20, 1)
	y := tensor.NewMatrix(20, 1)
	for i := 0; i < 20; i++ {
		x.Set(i, 0, float64(i))
		y.Set(i, 0, 0) // quality always 0
	}
	tuner := NewAutotuner(s, 0, 1)
	if err := tuner.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	cands := tensor.NewMatrix(5, 1)
	_, err := tuner.Tune(nil, cands,
		func(q []float64) bool { return q[0] > 0.5 },
		func(c []float64) float64 { return c[0] })
	if err == nil {
		t.Fatal("expected error when no candidate passes")
	}
}

func TestAutotunerDimensionErrors(t *testing.T) {
	rng := xrand.New(31)
	s := NewNNSurrogate(3, 1, []int{4}, 0, rng)
	tuner := NewAutotuner(s, 2, 1)
	if err := tuner.Fit(tensor.NewMatrix(5, 2), tensor.NewMatrix(5, 1)); err == nil {
		t.Fatal("wrong feature count should error")
	}
}

func TestControllerPrefersHighObjective(t *testing.T) {
	rng := xrand.New(37)
	// Train surrogate on y = -(x-0.7)^2 so the controller should pick
	// candidates near 0.7.
	const n = 400
	x := tensor.NewMatrix(n, 1)
	y := tensor.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		v := rng.Float64()
		x.Set(i, 0, v)
		y.Set(i, 0, -(v-0.7)*(v-0.7))
	}
	s := NewNNSurrogate(1, 1, []int{16}, 0.05, rng)
	s.Epochs = 250
	if err := s.Train(x, y); err != nil {
		t.Fatal(err)
	}
	ctrl := &Controller{Surrogate: s, Kappa: 0, Objective: func(y []float64) float64 { return y[0] }}
	cands := tensor.NewMatrix(11, 1)
	for i := 0; i <= 10; i++ {
		cands.Set(i, 0, float64(i)/10)
	}
	best := ctrl.Next(cands)
	if got := cands.At(best, 0); math.Abs(got-0.7) > 0.2 {
		t.Fatalf("controller chose %g, want near 0.7", got)
	}
}

func TestControllerExplorationKappa(t *testing.T) {
	rng := xrand.New(41)
	const n = 100
	x := tensor.NewMatrix(n, 1)
	y := tensor.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		v := rng.Float64() * 0.5 // train only on [0, 0.5]
		x.Set(i, 0, v)
		y.Set(i, 0, 1)
	}
	s := NewNNSurrogate(1, 1, []int{16}, 0.2, rng)
	s.Epochs = 150
	if err := s.Train(x, y); err != nil {
		t.Fatal(err)
	}
	cands := tensor.FromRows([][]float64{{0.25}, {3.0}}) // in-dist vs far out
	explorer := &Controller{Surrogate: s, Kappa: 50, Objective: func(y []float64) float64 { return 0 }}
	if got := explorer.Next(cands); got != 1 {
		t.Fatalf("high-kappa controller should explore the uncertain point, chose %d", got)
	}
}
