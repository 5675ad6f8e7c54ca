package epi

import (
	"fmt"

	"repro/internal/xrand"
)

// State is a disease compartment in the SEIR model of network epidemic
// spread (§II-A, "A popular example of such systems is the SEIR model of
// disease spread in a social network").
type State uint8

// SEIR compartments.
const (
	Susceptible State = iota
	Exposed
	Infectious
	Recovered
)

// DiseaseParams are the epidemiological parameters of one season.
type DiseaseParams struct {
	// Beta is the per-contact per-day transmission probability for a
	// weight-1 (community) edge.
	Beta float64
	// LatentDays is the mean E→I duration (geometric).
	LatentDays float64
	// InfectiousDays is the mean I→R duration (geometric).
	InfectiousDays float64
	// InitialInfections seeds this many random infectious people.
	InitialInfections int
}

// DefaultDiseaseParams is a moderately transmissible seasonal profile.
func DefaultDiseaseParams() DiseaseParams {
	return DiseaseParams{Beta: 0.02, LatentDays: 2, InfectiousDays: 4, InitialInfections: 5}
}

// SeasonResult holds one simulated epidemic season at full resolution.
type SeasonResult struct {
	// WeeklyCounty[w][c] is the number of new infections in county c
	// during week w.
	WeeklyCounty [][]float64
	// WeeklyState[w] is the state-level weekly incidence (sum of counties).
	WeeklyState []float64
	// AttackRate is the final fraction ever infected.
	AttackRate float64
	// PeakWeek is the index of the state-level peak.
	PeakWeek int
}

// Weeks returns the number of simulated weeks.
func (r *SeasonResult) Weeks() int { return len(r.WeeklyState) }

// Simulate runs a discrete-time (daily) stochastic SEIR season over the
// contact network for the given number of weeks and returns weekly
// incidence at county and state resolution.
func Simulate(net *Network, dp DiseaseParams, weeks int, seed uint64) (*SeasonResult, error) {
	n := len(net.People)
	if n == 0 {
		return nil, fmt.Errorf("epi: empty network")
	}
	if dp.Beta < 0 || dp.Beta > 1 {
		return nil, fmt.Errorf("epi: beta %g outside [0,1]", dp.Beta)
	}
	if dp.InitialInfections < 1 || dp.InitialInfections > n {
		return nil, fmt.Errorf("epi: initial infections %d invalid for population %d", dp.InitialInfections, n)
	}
	rng := xrand.New(seed)
	state := make([]State, n)
	// Geometric per-day exit probabilities.
	pEI := 1.0 / dp.LatentDays
	pIR := 1.0 / dp.InfectiousDays

	for _, idx := range rng.SampleWithoutReplacement(n, dp.InitialInfections) {
		state[idx] = Infectious
	}

	res := &SeasonResult{
		WeeklyCounty: make([][]float64, weeks),
		WeeklyState:  make([]float64, weeks),
	}
	everInfected := dp.InitialInfections
	newlyExposed := make([]int, 0, 256)
	for w := 0; w < weeks; w++ {
		res.WeeklyCounty[w] = make([]float64, net.Counties)
		for day := 0; day < 7; day++ {
			newlyExposed = newlyExposed[:0]
			// Transmission from every infectious person.
			for i := 0; i < n; i++ {
				if state[i] != Infectious {
					continue
				}
				adj := net.Adj[i]
				wts := net.Weight[i]
				for e, j := range adj {
					if state[j] != Susceptible {
						continue
					}
					p := dp.Beta * float64(wts[e])
					if p > 1 {
						p = 1
					}
					if rng.Bernoulli(p) {
						newlyExposed = append(newlyExposed, int(j))
					}
				}
			}
			// Progression E→I, I→R.
			for i := 0; i < n; i++ {
				switch state[i] {
				case Exposed:
					if rng.Bernoulli(pEI) {
						state[i] = Infectious
					}
				case Infectious:
					if rng.Bernoulli(pIR) {
						state[i] = Recovered
					}
				}
			}
			// Apply new exposures (a person can appear twice in the list;
			// the state check deduplicates).
			for _, j := range newlyExposed {
				if state[j] == Susceptible {
					state[j] = Exposed
					res.WeeklyCounty[w][net.People[j].County]++
					everInfected++
				}
			}
		}
		for c := 0; c < net.Counties; c++ {
			res.WeeklyState[w] += res.WeeklyCounty[w][c]
		}
	}
	res.AttackRate = float64(everInfected) / float64(n)
	peak := 0
	for w, v := range res.WeeklyState {
		if v > res.WeeklyState[peak] {
			peak = w
		}
		_ = v
	}
	res.PeakWeek = peak
	return res, nil
}
