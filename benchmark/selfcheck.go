package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var errChild = errors.New("child run failed")

// childRun runs one workload in a fresh process of this same binary and
// parses the report from the last line of its standard output. Each
// workload gets its own process so peak_rss_mb and setup_s are its own.
func childRun(workload string, seed uint64, seconds float64, trace int) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("%s: no report (%v): %w", workload, runErr, errChild)
	}
	if runErr != nil || !rep.Correct {
		return &rep, fmt.Errorf("%s seed %d: %w", workload, seed, errChild)
	}
	return &rep, nil
}

// runAll is the one command: every workload untraced then traced, every
// metric by name with its unit, outputs checked. The summary object ends
// with "claim": null — this benchmark measures, it claims no gain.
func runAll(seed uint64, seconds float64) int {
	type entry struct {
		Workload string  `json:"workload"`
		Trace    int     `json:"trace"`
		Report   *report `json:"report"`
	}
	var runs []entry
	code := 0
	for _, wl := range workloads() {
		for trace := 0; trace <= 1; trace++ {
			fmt.Fprintf(os.Stderr, "== %s (trace %d) ==\n", wl.name, trace)
			rep, err := childRun(wl.name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				code = 1
			}
			runs = append(runs, entry{wl.name, trace, rep})
		}
	}
	summary := struct {
		Seed    uint64  `json:"seed"`
		Seconds float64 `json:"seconds"`
		Runs    []entry `json:"runs"`
		Claim   any     `json:"claim"`
	}{seed, seconds, runs, nil}
	if err := json.NewEncoder(os.Stdout).Encode(summary); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return code
}

// quartiles are Python's statistics.quantiles(values, n=4) (exclusive
// method), which is what the driver uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		h := p * float64(len(s)+1)
		i := int(h)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (h-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// runSelfcheck runs two interleaved sets (A, B, A, B, …) of n untraced
// runs per workload, each pair on its own seed, and prints per workload
// × end-to-end metric both medians, both quartile spreads and the gap
// between the medians against the metric's bound — the driver's
// acceptance test, run by the benchmark on itself. Markdown on standard
// output; the committed copy is CALIBRATION.md.
func runSelfcheck(n int, seed uint64, seconds float64) int {
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if n < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -selfcheck needs at least 2 runs per set")
		return 2
	}
	fmt.Printf("# Calibration: two interleaved sets of %d runs, %g s each\n\n", n, seconds)
	fmt.Printf("`_meta`: cpus %d, GOMAXPROCS %d, %s, kernel %s, seeds %d..%d\n\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease(), seed, seed+uint64(n)-1)
	fmt.Println("spread = (Q3 − Q1) / median over a set's runs, quartiles as Python's `statistics.quantiles(v, n=4)`;")
	fmt.Println("gap = how much worse set B's median is than set A's (negative: better). Both must stay within the bound.")
	fmt.Println("needs = the larger of both spreads and twice the gap: what the bound would have to be at least.")
	code := 0
	for _, w := range sp.Workloads {
		vals := map[string]*[2][]float64{}
		for i := 0; i < n; i++ {
			for set := 0; set < 2; set++ {
				rep, err := childRun(w.Name, seed+uint64(i), seconds, 0)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				for name, v := range rep.Metrics {
					if vals[name] == nil {
						vals[name] = &[2][]float64{}
					}
					vals[name][set] = append(vals[name][set], v.Value)
				}
			}
		}
		fmt.Printf("\n## %s\n\n| metric | unit | median A | median B | spread A | spread B | gap B vs A | needs | bound | verdict |\n|---|---|---|---|---|---|---|---|---|---|\n", w.Name)
		for _, em := range sp.EndToEnd {
			v := vals[em.Name]
			if v == nil {
				fmt.Printf("| %s | | | | | | | | | MISSING |\n", em.Name)
				code = 1
				continue
			}
			a1, a2, a3 := quartiles(v[0])
			b1, b2, b3 := quartiles(v[1])
			spreadA, spreadB := ratio(a3-a1, a2), ratio(b3-b1, b2)
			gap := ratio(b2-a2, a2)
			if em.Better == "higher" {
				gap = -gap
			}
			verdict := "ok"
			// The driver exempts setup_s from the spread test, not from the gap.
			if gap > em.Bound || (em.Name != "setup_s" && (spreadA > em.Bound || spreadB > em.Bound)) {
				verdict = "DISAGREE"
				code = 1
			}
			needs := 2 * math.Abs(gap)
			if em.Name != "setup_s" {
				needs = math.Max(needs, math.Max(spreadA, spreadB))
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.2f %% | %.2f %% | %+.2f %% | %.2f %% | %.3g %% | %s |\n",
				em.Name, em.Unit, a2, b2, 100*spreadA, 100*spreadB, 100*gap, 100*needs, 100*em.Bound, verdict)
		}
	}
	if code != 0 {
		fmt.Println("\nRESULT: the two sets disagree beyond a bound.")
	} else {
		fmt.Println("\nRESULT: the two sets agree within every bound.")
	}
	return code
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
