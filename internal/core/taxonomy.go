package core

// Interface enumerates the six links between machine learning and HPC the
// paper identifies (§I, "Different Interfaces of ML and HPC"). The first
// two belong to the HPCforML category, the remaining four to MLforHPC.
type Interface int

// The paper's six ML↔HPC interface modes.
const (
	// HPCrunsML: using HPC to execute ML with high performance.
	HPCrunsML Interface = iota
	// SimulationTrainedML: HPC simulations train ML algorithms which are
	// then used to understand experimental data or simulations.
	SimulationTrainedML
	// MLautotuning: ML configures (autotunes) ML or HPC simulations —
	// block sizes, mesh sizes, timesteps, database/system knobs.
	MLautotuning
	// MLafterHPC: ML analyzes the results of HPC, as in trajectory
	// analysis and structure identification in biomolecular simulations.
	MLafterHPC
	// MLaroundHPC: ML learns from simulations and produces learned
	// surrogates of them, improving HPC effective performance.
	MLaroundHPC
	// MLControl: simulations (with HPC) embedded in control of experiments
	// and objective-driven computational campaigns.
	MLControl
)

// Category is one of the paper's two broad ML/HPC interaction directions.
type Category int

// The two broad categories.
const (
	// HPCforML: using HPC to execute and enhance ML performance.
	HPCforML Category = iota
	// MLforHPC: using ML to enhance HPC applications and systems. The
	// paper (and this repository) focuses here.
	MLforHPC
)

// String returns the interface name as written in the paper.
func (i Interface) String() string {
	switch i {
	case HPCrunsML:
		return "HPCrunsML"
	case SimulationTrainedML:
		return "SimulationTrainedML"
	case MLautotuning:
		return "MLautotuning"
	case MLafterHPC:
		return "MLafterHPC"
	case MLaroundHPC:
		return "MLaroundHPC"
	case MLControl:
		return "MLControl"
	default:
		return "unknown"
	}
}

// Category returns which broad direction the interface belongs to.
func (i Interface) Category() Category {
	switch i {
	case HPCrunsML, SimulationTrainedML:
		return HPCforML
	default:
		return MLforHPC
	}
}

// String returns the category name.
func (c Category) String() string {
	if c == HPCforML {
		return "HPCforML"
	}
	return "MLforHPC"
}
