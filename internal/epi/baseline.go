package epi

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// EpiFastLike is the mechanistic comparison method of §II-A: it calibrates
// the SEIR model's transmissibility against the observed state-level
// surveillance prefix by grid search over simulation replicates, then
// forecasts future weeks by rerunning the calibrated model. This is the
// "mechanistic models ... are compute intensive and hard to calibrate"
// baseline the paper says DEFSI outperforms at county resolution.
type EpiFastLike struct {
	Net        *Network
	Weeks      int
	ReportRate float64
	// BetaGrid are the candidate transmissibilities; Replicates averages
	// stochastic runs per candidate.
	BetaGrid   []float64
	Replicates int
	Base       DiseaseParams
	Seed       uint64

	calibrated     bool
	bestBeta       float64
	forecastCounty [][]float64 // mean replicate county curves
	forecastState  []float64
}

// NewEpiFastLike constructs the baseline forecaster.
func NewEpiFastLike(net *Network, base DiseaseParams, weeks int, reportRate float64, seed uint64) *EpiFastLike {
	grid := make([]float64, 0, 9)
	for f := 0.5; f <= 2.01; f += 0.1875 {
		grid = append(grid, base.Beta*f)
	}
	return &EpiFastLike{
		Net: net, Weeks: weeks, ReportRate: reportRate,
		BetaGrid: grid, Replicates: 3, Base: base, Seed: seed,
	}
}

// Calibrate fits beta to the observed surveillance prefix (weeks
// [0, uptoWeek)) and caches the calibrated model's mean forecast curves.
//
// The grid candidates are independent simulation fans, so they evaluate
// concurrently over a bounded worker pool — the same parallel oracle
// fan-out core's wrappers use for rejected batch rows. Replicate seeds are
// pre-drawn in grid order from the calibration rng, so the result is
// bit-identical to a sequential scan regardless of scheduling.
func (e *EpiFastLike) Calibrate(surveillance []float64, uptoWeek int) error {
	if uptoWeek < 2 || uptoWeek > len(surveillance) {
		return fmt.Errorf("epi: calibration prefix %d invalid", uptoWeek)
	}
	rng := xrand.New(e.Seed)
	seeds := make([][]uint64, len(e.BetaGrid))
	for bi := range e.BetaGrid {
		seeds[bi] = make([]uint64, e.Replicates)
		for rep := range seeds[bi] {
			seeds[bi][rep] = rng.Uint64()
		}
	}

	type candidate struct {
		ok         bool
		score      float64
		countyMean [][]float64
		stateMean  []float64
	}
	cands := make([]candidate, len(e.BetaGrid))
	eval := func(bi int) {
		dp := e.Base
		dp.Beta = e.BetaGrid[bi]
		countyMean := make([][]float64, e.Weeks)
		stateMean := make([]float64, e.Weeks)
		for w := range countyMean {
			countyMean[w] = make([]float64, e.Net.Counties)
		}
		for rep := 0; rep < e.Replicates; rep++ {
			res, err := Simulate(e.Net, dp, e.Weeks, seeds[bi][rep])
			if err != nil {
				return
			}
			for w := 0; w < e.Weeks; w++ {
				stateMean[w] += res.WeeklyState[w] / float64(e.Replicates)
				for c := 0; c < e.Net.Counties; c++ {
					countyMean[w][c] += res.WeeklyCounty[w][c] / float64(e.Replicates)
				}
			}
		}
		// Score: RMSE between reported prefix and the model's *reported*
		// prefix (apply the reporting rate to simulated incidence).
		score := 0.0
		for w := 0; w < uptoWeek; w++ {
			d := surveillance[w] - stateMean[w]*e.ReportRate
			score += d * d
		}
		cands[bi] = candidate{ok: true, score: score, countyMean: countyMean, stateMean: stateMean}
	}

	parallel.ForEachBounded(len(e.BetaGrid), runtime.GOMAXPROCS(0), eval)

	bestScore := math.Inf(1)
	for bi, c := range cands {
		if c.ok && c.score < bestScore {
			bestScore = c.score
			e.bestBeta = e.BetaGrid[bi]
			e.forecastCounty = c.countyMean
			e.forecastState = c.stateMean
		}
	}
	if math.IsInf(bestScore, 1) {
		return errors.New("epi: calibration failed for all candidates")
	}
	e.calibrated = true
	return nil
}

// ForecastCounty returns the calibrated model's county incidence at week t.
func (e *EpiFastLike) ForecastCounty(t int) ([]float64, error) {
	if !e.calibrated {
		return nil, errors.New("epi: EpiFastLike not calibrated")
	}
	if t < 0 || t >= e.Weeks {
		return nil, fmt.Errorf("epi: week %d out of range", t)
	}
	out := make([]float64, e.Net.Counties)
	copy(out, e.forecastCounty[t])
	return out, nil
}

// ForecastState returns the calibrated model's state incidence at week t.
func (e *EpiFastLike) ForecastState(t int) (float64, error) {
	if !e.calibrated {
		return 0, errors.New("epi: EpiFastLike not calibrated")
	}
	if t < 0 || t >= e.Weeks {
		return 0, fmt.Errorf("epi: week %d out of range", t)
	}
	return e.forecastState[t], nil
}

// PersistenceForecast is the naive data-driven baseline: state-level
// incidence next week equals the last surveillance observation scaled back
// by the reporting rate, downscaled to counties by population share. It
// embodies the paper's observation that "completely data driven models
// cannot discover higher resolution details ... from lower resolution
// ground truth data".
type PersistenceForecast struct {
	Net        *Network
	ReportRate float64
	popShare   []float64
}

// NewPersistenceForecast builds the baseline.
func NewPersistenceForecast(net *Network, reportRate float64) *PersistenceForecast {
	pops := net.CountyPopulations()
	total := 0
	for _, p := range pops {
		total += p
	}
	share := make([]float64, len(pops))
	for i, p := range pops {
		share[i] = float64(p) / float64(total)
	}
	return &PersistenceForecast{Net: net, ReportRate: reportRate, popShare: share}
}

// ForecastCounty predicts week-t county incidence from surveillance week
// t-1 by population downscaling.
func (p *PersistenceForecast) ForecastCounty(surveillance []float64, t int) ([]float64, error) {
	if t < 1 || t > len(surveillance) {
		return nil, fmt.Errorf("epi: persistence needs week %d-1 observed", t)
	}
	stateEst := surveillance[t-1] / p.ReportRate
	out := make([]float64, len(p.popShare))
	for c, s := range p.popShare {
		out[c] = stateEst * s
	}
	return out, nil
}

// ForecastState predicts week-t state incidence as last week's
// surveillance scaled by the reporting rate.
func (p *PersistenceForecast) ForecastState(surveillance []float64, t int) (float64, error) {
	if t < 1 || t > len(surveillance) {
		return 0, fmt.Errorf("epi: persistence needs week %d-1 observed", t)
	}
	return surveillance[t-1] / p.ReportRate, nil
}

// ForecastEval collects per-method forecast errors for experiment E4.
type ForecastEval struct {
	Method     string
	StateRMSE  float64
	CountyRMSE float64
	Weeks      int
}

// EvaluateForecasts scores state and county forecasts of the truth season
// over weeks [fromWeek, truth.Weeks()).
func EvaluateForecasts(truth *SeasonResult, fromWeek int,
	stateF func(t int) (float64, error),
	countyF func(t int) ([]float64, error), method string) (*ForecastEval, error) {
	var statePred, stateTrue, countyPred, countyTrue []float64
	for t := fromWeek; t < truth.Weeks(); t++ {
		sp, err := stateF(t)
		if err != nil {
			return nil, err
		}
		statePred = append(statePred, sp)
		stateTrue = append(stateTrue, truth.WeeklyState[t])
		cp, err := countyF(t)
		if err != nil {
			return nil, err
		}
		if len(cp) != len(truth.WeeklyCounty[t]) {
			return nil, fmt.Errorf("epi: county dimension mismatch %d vs %d", len(cp), len(truth.WeeklyCounty[t]))
		}
		countyPred = append(countyPred, cp...)
		countyTrue = append(countyTrue, truth.WeeklyCounty[t]...)
	}
	return &ForecastEval{
		Method:     method,
		StateRMSE:  stats.RMSE(statePred, stateTrue),
		CountyRMSE: stats.RMSE(countyPred, countyTrue),
		Weeks:      truth.Weeks() - fromWeek,
	}, nil
}
