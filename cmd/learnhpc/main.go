// Command learnhpc regenerates the reproduction's experiment tables
// (E1–E10, see DESIGN.md §4 and EXPERIMENTS.md).
//
// Usage:
//
//	learnhpc [-scale=small|full] all
//	learnhpc [-scale=small|full] e1 e4 e10
//	learnhpc serve -addr 127.0.0.1:9090 -health 127.0.0.1:9091
//	learnhpc worker -addr 127.0.0.1:9191 -registry /tmp/w1
//	learnhpc route -addr 127.0.0.1:9090 -workers 127.0.0.1:9191,127.0.0.1:9192
//	learnhpc loadtest -addr 127.0.0.1:9090 -dur 10s -workers 64
//
// Small scale finishes in seconds per experiment; full scale is the
// documented reproduction configuration. The serve subcommand puts a
// demo fleet on the TCP wire protocol (with /healthz, /readyz, /statsz,
// /metricsz and /debug/pprof/ endpoints); worker and route are the
// dispatch tier; loadtest is a closed-loop poke at any of those
// addresses that prints outcome counts and a latency histogram
// (measured load generation is go run ./benchmark -workload
// routed_open|routed_closed).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

type runner struct {
	name string
	desc string
	run  func(experiments.Scale) (fmt.Stringer, error)
}

func wrap[T fmt.Stringer](f func(experiments.Scale) (T, error)) func(experiments.Scale) (fmt.Stringer, error) {
	return func(s experiments.Scale) (fmt.Stringer, error) { return f(s) }
}

func main() {
	// The wire subcommands take their own flag sets; dispatch before the
	// experiment driver's flags claim the command line.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			runServe(os.Args[2:])
			return
		case "loadtest":
			runLoadtest(os.Args[2:])
			return
		case "worker":
			runWorker(os.Args[2:])
			return
		case "route":
			runRoute(os.Args[2:])
			return
		}
	}
	scaleFlag := flag.String("scale", "small", "experiment scale: small or full")
	flag.Usage = usage
	flag.Parse()

	var scale experiments.Scale
	switch *scaleFlag {
	case "small":
		scale = experiments.Small
	case "full":
		scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "learnhpc: unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	runners := []runner{
		{"e1", "effective speedup formula sweep (§III-D)", wrap(experiments.E1EffectiveSpeedup)},
		{"e2", "nano-confinement density surrogate (§II-C1)", wrap(experiments.E2NanoSurrogate)},
		{"e3", "MLautotuning of the MD timestep (§III-D)", wrap(experiments.E3Autotune)},
		{"e4", "DEFSI vs EpiFast-like vs persistence (§II-A)", wrap(experiments.E4DEFSI)},
		{"e5", "NN potential vs ab-initio stand-in (§II-C2)", wrap(experiments.E5NNPotential)},
		{"e6", "active learning sample efficiency (§II-C2)", wrap(experiments.E6ActiveLearning)},
		{"e7", "MC-dropout UQ calibration (§III-B)", wrap(experiments.E7DropoutUQ)},
		{"e8", "solvent-kernel surrogate speedup (§II-C2)", wrap(experiments.E8SolventSurrogate)},
		{"e10a", "four parallel computation models (§III-A)", wrap(experiments.E10ParallelModels)},
		{"e10b", "heterogeneous task scheduling (§III-E)", wrap(experiments.E10Scheduler)},
		{"e9", "tissue transport short-circuit (§II-B)", wrap(experiments.E9TissueShortCircuit)},
		{"e11", "multi-tenant serving fleet: potential+tissue+epi behind one dispatch plane", wrap(experiments.E11FleetServing)},
	}
	// Keep display order e1..e11.
	order := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10a", "e10b", "e11"}
	byName := map[string]runner{}
	for _, r := range runners {
		byName[r.name] = r
	}

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	var selected []string
	if len(args) == 1 && args[0] == "all" {
		selected = order
	} else {
		for _, a := range args {
			name := strings.ToLower(a)
			if name == "e10" {
				selected = append(selected, "e10a", "e10b")
				continue
			}
			if _, ok := byName[name]; !ok {
				fmt.Fprintf(os.Stderr, "learnhpc: unknown experiment %q\n", a)
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}

	failures := 0
	for _, name := range selected {
		r := byName[name]
		fmt.Printf("== %s: %s (scale=%s)\n", r.name, r.desc, *scaleFlag)
		t0 := time.Now()
		res, err := r.run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "learnhpc: %s failed: %v\n", r.name, err)
			failures++
			continue
		}
		fmt.Print(res.String())
		fmt.Printf("   [%.1fs]\n\n", time.Since(t0).Seconds())
	}
	if failures > 0 {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `learnhpc — Learning Everywhere reproduction experiment driver

usage: learnhpc [-scale=small|full] all
       learnhpc [-scale=small|full] e1 [e2 ...]

experiments:
  e1    effective speedup formula sweep (paper §III-D)
  e2    nano-confinement density surrogate, D=5 (paper §II-C1, §III-D)
  e3    MLautotuning of the MD timestep, D=6 (paper §III-D, ref [9])
  e4    DEFSI two-branch forecasting vs baselines (paper §II-A)
  e5    NN potential vs expensive reference oracle (paper §II-C2)
  e6    active-learning sample efficiency (paper §II-C2)
  e7    MC-dropout uncertainty calibration (paper §III-B)
  e8    learned solvent-kernel speedup (paper §II-C2)
  e9    tissue advection-diffusion short-circuit (paper §I, §II-B)
  e10   parallel computation models + heterogeneous scheduling (§III-A, §III-E)
  e11   multi-tenant serving fleet: one dispatch plane for every surrogate (§I)

wire subcommands (their own flags; see learnhpc <cmd> -h):
  serve     put a demo fleet on the TCP wire with health endpoints
  loadtest  closed-loop poke at a wire address: outcome counts + latency histogram
  worker    empty wire server that serves tenants a router places on it
  route     dispatch tier: consistent-hash placement + zero-copy forwarding
            over a set of workers, with mirrored-artifact warm failover
`)
	flag.PrintDefaults()
}
