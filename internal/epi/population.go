// Package epi implements the networked-systems exemplar of §II-A: a
// synthetic hierarchical population, a stochastic SEIR network dynamical
// system, coarse noisy surveillance, the DEFSI-style two-branch deep
// network trained on simulation-generated synthetic data, and an
// EpiFast-like mechanistic calibration baseline. The reproduced claim
// (experiment E4) is that the simulation-trained network forecasts
// comparably at the coarse (state) level and better at the fine (county)
// level than the mechanistic baseline.
package epi

import (
	"fmt"

	"repro/internal/xrand"
)

// Person is one node of the contact network.
type Person struct {
	County    int
	Household int
}

// Network is a static contact network with weighted edges grouped per
// person. Household contacts carry higher transmission weight than
// community contacts, and a commuting fraction adds cross-county edges —
// the "individual level heterogeneity and interactions" that make network
// dynamical systems hard for pure ML (§II-A).
type Network struct {
	People   []Person
	Adj      [][]int32   // neighbor indices per person
	Weight   [][]float32 // per-edge transmission weight multiplier
	Counties int
}

// PopulationConfig controls synthetic population generation.
type PopulationConfig struct {
	// Counties is the number of counties in the synthetic state.
	Counties int
	// MeanCountyPop is the mean county population (counties vary ±50%).
	MeanCountyPop int
	// MeanHousehold is the mean household size (≥1).
	MeanHousehold float64
	// CommunityContacts is the mean number of within-county community
	// contacts per person.
	CommunityContacts float64
	// ContactHeterogeneity spreads per-county contact rates over
	// [1-h, 1+h] times CommunityContacts (urban vs rural mixing). This is
	// the county-level structure a population-share downscaler cannot see
	// but a simulation-trained model can (§II-A: "completely data driven
	// models cannot discover higher resolution details").
	ContactHeterogeneity float64
	// CommuteFrac is the fraction of people with cross-county contacts.
	CommuteFrac float64
	// HouseholdWeight multiplies transmission probability inside
	// households relative to community contacts.
	HouseholdWeight float64
	// Seed drives generation.
	Seed uint64
}

// DefaultPopulationConfig returns a small but structured synthetic state.
func DefaultPopulationConfig() PopulationConfig {
	return PopulationConfig{
		Counties: 6, MeanCountyPop: 500, MeanHousehold: 3,
		CommunityContacts: 8, ContactHeterogeneity: 0.5,
		CommuteFrac: 0.05, HouseholdWeight: 3,
		Seed: 1,
	}
}

// GeneratePopulation builds the synthetic state: households are cliques,
// community contacts form a within-county random graph, and commuters add
// cross-county edges.
func GeneratePopulation(cfg PopulationConfig) (*Network, error) {
	if cfg.Counties < 1 || cfg.MeanCountyPop < 2 {
		return nil, fmt.Errorf("epi: invalid population config %+v", cfg)
	}
	rng := xrand.New(cfg.Seed)
	net := &Network{Counties: cfg.Counties}

	// People and households.
	householdID := 0
	countySizes := make([]int, cfg.Counties)
	for c := 0; c < cfg.Counties; c++ {
		// County sizes vary ±50% around the mean.
		size := int(float64(cfg.MeanCountyPop) * rng.Range(0.5, 1.5))
		if size < 2 {
			size = 2
		}
		countySizes[c] = size
		remaining := size
		for remaining > 0 {
			h := 1 + rng.Poisson(cfg.MeanHousehold-1)
			if h > remaining {
				h = remaining
			}
			for m := 0; m < h; m++ {
				net.People = append(net.People, Person{County: c, Household: householdID})
			}
			householdID++
			remaining -= h
		}
	}
	n := len(net.People)
	net.Adj = make([][]int32, n)
	net.Weight = make([][]float32, n)

	addEdge := func(a, b int, w float32) {
		net.Adj[a] = append(net.Adj[a], int32(b))
		net.Weight[a] = append(net.Weight[a], w)
		net.Adj[b] = append(net.Adj[b], int32(a))
		net.Weight[b] = append(net.Weight[b], w)
	}

	// Household cliques.
	byHousehold := map[int][]int{}
	byCounty := make([][]int, cfg.Counties)
	for i, p := range net.People {
		byHousehold[p.Household] = append(byHousehold[p.Household], i)
		byCounty[p.County] = append(byCounty[p.County], i)
	}
	hw := float32(cfg.HouseholdWeight)
	for _, members := range byHousehold {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				addEdge(members[i], members[j], hw)
			}
		}
	}
	// Community contacts: each person draws ~CommunityContacts/2 partners
	// (each edge adds degree to both ends), scaled by the county's
	// deterministic contact-rate multiplier.
	countyRate := make([]float64, cfg.Counties)
	for c := range countyRate {
		countyRate[c] = 1.0
		if cfg.Counties > 1 && cfg.ContactHeterogeneity > 0 {
			frac := float64(c) / float64(cfg.Counties-1) // 0..1 across counties
			countyRate[c] = 1 - cfg.ContactHeterogeneity + 2*cfg.ContactHeterogeneity*frac
		}
	}
	for i := 0; i < n; i++ {
		county := net.People[i].County
		peers := byCounty[county]
		k := rng.Poisson(cfg.CommunityContacts / 2 * countyRate[county])
		for e := 0; e < k; e++ {
			j := peers[rng.Intn(len(peers))]
			if j != i {
				addEdge(i, j, 1)
			}
		}
	}
	// Commuters: cross-county community contacts.
	if cfg.Counties > 1 {
		for i := 0; i < n; i++ {
			if !rng.Bernoulli(cfg.CommuteFrac) {
				continue
			}
			other := rng.Intn(cfg.Counties - 1)
			if other >= net.People[i].County {
				other++
			}
			peers := byCounty[other]
			for e := 0; e < 2; e++ {
				addEdge(i, peers[rng.Intn(len(peers))], 1)
			}
		}
	}
	return net, nil
}

// CountyPopulations returns the number of people per county.
func (n *Network) CountyPopulations() []int {
	out := make([]int, n.Counties)
	for _, p := range n.People {
		out[p.County]++
	}
	return out
}
