// Command benchmark is the repo's end-to-end benchmark: it stands the
// real stack up in process from the layers' public functions (tensor →
// nn → core → serve → fleet → netserve → router, registry on the
// publish/warm-start side), drives one of four named workloads, checks
// the answers, and prints the metrics BENCHMARK.json names. See README.md
// in this directory.
//
//	go run ./benchmark                      all four workloads, every metric by name
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	go run ./benchmark -selfcheck N         two interleaved sets of N runs, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"syscall"
	"time"
)

// report is the one JSON object a run prints as its last line of
// standard output.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// stack is a provisioned workload, warm and ready to be measured.
type stack interface {
	// measure drives the workload for d with request streams drawn from seed.
	measure(seed uint64, d time.Duration) *result
	// background returns the first failure of anything the stack runs
	// off the request path (publishes, refits, Serve loops).
	background() error
	// layers fills in what the traced run of this workload measures: the
	// work counts of the layers it enters, and the probes and ladder rungs
	// that belong to it.
	layers(res *result, m metrics) error
	close()
}

// workload is one named set of inputs. The latency limit and the
// accuracy ceiling are constants frozen here and stated in the
// workload's `why` in BENCHMARK.json, whose keys are fixed (the smoke
// test holds the two against each other): the limit at 2× the calibrated
// latency_p99_us, two significant digits, on the flat part of the
// latency CDF; the ceiling at 1.5× the calibrated answer_rmse — on
// learn_loop, whose pooled RMSE is three post-shift transients a run,
// 1.5× the worst run seen (CALIBRATION.md).
type workload struct {
	name     string
	sloUS    float64
	rmseCeil float64
	window   time.Duration // windows are at least this long
	setup    func(e *env, sloNS int64) (stack, error)
}

// Windows: 1 s on the routed workloads; on batch_sweep and learn_loop
// at least 5 s, which at the contract's 24 s run is one window per
// measured segment (8 s) — on learn_loop a whole replica of the
// experiment, input shift included.
const (
	routedWindow = time.Second
	batchWindow  = 5 * time.Second // batch calls: batch_sweep and learn_loop
)

func workloads() []*workload {
	return []*workload{
		{name: "routed_open", sloUS: 2000, rmseCeil: 0.09, window: routedWindow, setup: setupRoutedOpen},
		{name: "routed_closed", sloUS: 1200, rmseCeil: 0.09, window: routedWindow, setup: setupRoutedClosed},
		{name: "batch_sweep", sloUS: 20000, rmseCeil: 0.07, window: batchWindow, setup: setupBatchWL},
		{name: "learn_loop", sloUS: 8400, rmseCeil: 0.16, window: batchWindow, setup: setupLearnWL},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// grossRMSE is what an answer stream that has nothing to do with the
// truth would exceed on any workload (predicting the mean scores ~0.7).
// A run too short to hold a whole window is checked against it alone.
const grossRMSE = 0.5

// minWindowSamples is what a window's p99 needs: 1000 samples put 10
// beyond it. A run with a full-length window that holds fewer fails.
const minWindowSamples = 1000

// untracedSetups is how often an untraced run sets the workload up:
// setup_s is the median, and the measured time is split evenly over the
// bring-ups (fresh sockets, goroutines, heap), whose luck differs by
// ±5 % on the reference box. The traced run sets up once.
const untracedSetups = 3

// tracedShare is the share of --seconds the traced run measures the
// workload for; the rest goes to the ladder and the probes.
const tracedShare = 0.4

// outDir is where a run leaves what it leaves behind (registry scratch
// files, span files): inside the checkout, next to run.sh's build.
const outDir = ".bench_build"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runWorkload sets the workload up, measures it, checks the outputs and
// returns the report plus the problems found. problems non-empty means
// the run is not correct.
func runWorkload(e *env, wl *workload) (rep *report, problems []string, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(probeError)
			if !ok {
				panic(r)
			}
			err = pe.err
		}
	}()
	if err := os.MkdirAll(e.tmp(), 0o755); err != nil {
		return nil, nil, err
	}
	setups, share := untracedSetups, 1.0
	if e.tr != nil {
		setups, share = 1, tracedShare
	}
	res := &result{}
	var setupS []float64
	var st stack
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := time.Now()
		if st, err = wl.setup(e, int64(wl.sloUS*1e3)); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if e.tr != nil {
			e.tr.reset(spanBackend, spanOracle)
		}
		res.add(st.measure(e.seed+uint64(i)*0x5e9, e.dur(share/float64(setups))))
		err = st.background()
		if i < setups-1 || err != nil {
			st.close()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", wl.name, err)
		}
	}
	// The last stack stays up for the traced run's layer counts.
	defer st.close()

	sum := summarize(res.wins)
	problems = checkOutputs(wl, res, &sum)
	m := metrics{}
	m.user(e.tr != nil, map[string]float64{
		"setup_s":        median(setupS),
		"rows_per_s":     float64(res.ok) / res.wall.Seconds(),
		"latency_p50_us": sum.p50us,
		"latency_p99_us": sum.p99us,
		"slo_ok_share":   ratio(float64(res.sloOK), float64(res.attempted)),
		"cpu_us_per_row": sum.cpuUSPerRow,
		"answer_rmse":    sum.rmse,
		"peak_rss_mb":    peakRSSMB(),
	})
	printRun(e, wl, res, &sum)
	if e.tr != nil {
		path := filepath.Join(e.out, "trace", fmt.Sprintf("%s-seed%d.jsonl", wl.name, e.seed))
		n, err := e.tr.writeSpans(path, wl.name, res.roots)
		if err != nil {
			return nil, nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "  traced: %d spans in %s\n", n, path)
		if err := st.layers(res, m); err != nil {
			return nil, nil, err
		}
		if q := m["registry.quarantines"].Value; q != 0 {
			problems = append(problems, fmt.Sprintf("registry quarantined %v artifacts", q))
		}
		problems = append(problems, checkLadder(m, &sum)...)
		m.zeroFill()
	}
	for name, v := range m {
		if !nameRE.MatchString(name) {
			problems = append(problems, fmt.Sprintf("metric name %q is not [A-Za-z0-9_.-]+", name))
		}
		if v.Unit == "" {
			problems = append(problems, fmt.Sprintf("metric %s has no unit", name))
		}
	}
	return &report{len(problems) == 0, res.attempted, res.failed(), m}, problems, nil
}

// checkOutputs holds a run's answers against what must be true of them.
func checkOutputs(wl *workload, res *result, sum *winSummary) (problems []string) {
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	if res.attempted < 1 || res.ok < 1 {
		bad("no rows answered (attempted %d)", res.attempted)
	}
	if res.attempted != res.ok+res.failed() {
		bad("attempted %d != ok %d + failed %d", res.attempted, res.ok, res.failed())
	}
	if res.gateViol != 0 {
		bad("%d surrogate answers served above the UQ threshold", res.gateViol)
	}
	// A run too short for one whole window (the smoke test) may be all
	// warm-up or all shift transient: it is checked for gross error only.
	full := res.wins[0].len >= wl.window
	ceil := wl.rmseCeil
	if !full {
		ceil = grossRMSE
	}
	if sum.rmse > ceil {
		bad("answer_rmse %.4g above the ceiling %.4g", sum.rmse, ceil)
	}
	if full && sum.minSamples < minWindowSamples {
		bad("a window of %v holds %d latency samples, fewer than the %d a p99 needs",
			res.wins[0].len, sum.minSamples, minWindowSamples)
	}
	return problems
}

// printRun writes the run's counts, and the whole-run values the
// windowed metrics are to be read against, to standard error.
func printRun(e *env, wl *workload, res *result, sum *winSummary) {
	fails := ""
	for k, n := range res.fails {
		if n != 0 {
			fails += fmt.Sprintf(" %s=%d", failNames[k], n)
		}
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: attempted %d rows, ok %d, failed %d%s; windows %d × %v, smallest %d samples; oracle rows %d\n",
		wl.name, e.seed, res.attempted, res.ok, res.failed(), fails, sum.windows, res.wins[0].len, sum.minSamples, res.oracle)
	fmt.Fprintf(os.Stderr, "  windowed: p50 %.1f us, p99 %.1f us, %.3f us CPU/row; whole run, pooled: p50 %.1f us, p99 %.1f us, p99.9 %.1f us, slowest %.1f us, %.3f us CPU/row; rmse %.4g (worst window %.4g)\n",
		sum.p50us, sum.p99us, sum.cpuUSPerRow,
		sum.pooled.quantile(0.5)/1e3, sum.pooled.quantile(0.99)/1e3, sum.pooled.quantile(0.999)/1e3, sum.pooled.quantile(1)/1e3,
		ratio(float64(res.cpu)/1e3, float64(res.ok)), sum.rmse, sum.worstRMSE)
	fmt.Fprintf(os.Stderr, "  share of OK calls slower than 1/2/4/8/16/32 × the reported p99:")
	for k := 1; k <= 32; k *= 2 {
		fmt.Fprintf(os.Stderr, " %.3f %%", 100*sum.pooled.shareAbove(int64(float64(k)*sum.p99us*1e3)))
	}
	fmt.Fprintln(os.Stderr)
	if res.late.n > 0 {
		fmt.Fprintf(os.Stderr, "  generator lateness: p50 %.1f us, p99 %.1f us over %d bursts\n",
			res.late.quantile(0.5)/1e3, res.late.quantile(0.99)/1e3, res.late.n)
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss is kB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func main() {
	var (
		wlName    = flag.String("workload", "", "workload to run (default: all four, each in a fresh process)")
		seed      = flag.Uint64("seed", 1, "workload seed: the request streams derive from it")
		seconds   = flag.Float64("seconds", 24, "measured seconds")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the span file")
		selfcheck = flag.Int("selfcheck", 0, "run two interleaved sets of N runs per workload and compare them against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	switch {
	case *selfcheck > 0:
		os.Exit(runSelfcheck(*selfcheck, *seed, *seconds))
	case *wlName == "":
		os.Exit(runAll(*seed, *seconds))
	}
	wl := findWorkload(*wlName)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *wlName)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		os.Exit(2)
	}
	e := &env{seed: *seed, seconds: *seconds, out: outDir}
	if *trace != 0 {
		e.tr = newTracer()
	}
	rep, problems, err := runWorkload(e, wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	rep.Metrics.print()
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "INCORRECT %s: %s\n", wl.name, p)
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}
