// bench_diff compares the last two BENCH_<n>.json snapshots written by
// scripts/bench.sh and exits nonzero when any benchmark present in both
// regressed by more than the tolerance in ns/op — the CI trip-wire behind
// the repo's perf trajectory.
//
// Usage:
//
//	go run ./scripts/bench_diff.go [-tol 15] [-dir .] [-require a,b:allocs=0] [old.json new.json]
//
// With no positional arguments it discovers the two highest-numbered
// BENCH_<n>.json files in -dir and compares them in order. -require
// lists benchmark-name substrings that must each match at least one
// entry of the NEW snapshot — the gate for "this PR's headline
// benchmarks are actually recorded", so a perf claim cannot silently
// drop out of the trajectory. A requirement may carry an allocs
// constraint, "substr:allocs=N": every matching entry must then report
// exactly N allocs/op, which is how zero-allocation contracts (the
// compiled-batch serving path) are enforced in CI rather than just
// claimed in a commit message. It may instead carry a speedup
// constraint, "substr:faster=REF@RATIO": every matching entry must run
// at least RATIO× faster than the exactly-named REF benchmark of the
// same snapshot (ref ns/op ÷ entry ns/op ≥ RATIO), which is how
// relative perf claims (the int8 quantized forward versus the float
// compiled forward) are enforced; or a ceiling, "substr:maxns=N": every
// matching entry must take at most N ns/op, for a benchmark whose former
// REF got faster under it and left the ratio saying nothing about the
// entry itself. Entries whose name starts with "_" are snapshot
// metadata, not benchmarks: two snapshots whose _meta.cpus,
// _meta.gomaxprocs or _meta.simd differ are not compared at all (exit 2,
// both shapes named); a field an older snapshot lacks is not held
// against it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type benchEntry struct {
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
	P50Ns       *float64 `json:"p50_ns"`
	P99Ns       *float64 `json:"p99_ns"`
}

// snapMeta is the machine shape scripts/bench.sh records under "_meta".
// A field an older snapshot does not carry is nil and is not compared.
type snapMeta struct {
	CPUs       *int    `json:"cpus"`
	GoMaxProcs *int    `json:"gomaxprocs"`
	SIMD       *string `json:"simd"`
}

func (m snapMeta) String() string {
	return fmt.Sprintf("cpus=%s gomaxprocs=%s simd=%s", orUnknown(m.CPUs), orUnknown(m.GoMaxProcs), orUnknown(m.SIMD))
}

func orUnknown[T any](v *T) string {
	if v == nil {
		return "?"
	}
	return fmt.Sprint(*v)
}

// sameShape reports whether two snapshots were taken on the same machine
// shape, as far as both record it: ns/op from different CPU counts,
// GOMAXPROCS or inner kernels do not measure the code between them.
func sameShape(a, b snapMeta) bool {
	return agree(a.CPUs, b.CPUs) && agree(a.GoMaxProcs, b.GoMaxProcs) && agree(a.SIMD, b.SIMD)
}

func agree[T comparable](a, b *T) bool { return a == nil || b == nil || *a == *b }

func loadSnapshot(path string) (map[string]benchEntry, snapMeta, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, snapMeta{}, err
	}
	var snap map[string]benchEntry
	var shape struct {
		Meta snapMeta `json:"_meta"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, snapMeta{}, fmt.Errorf("%s: %w", path, err)
	}
	if err := json.Unmarshal(raw, &shape); err != nil {
		return nil, snapMeta{}, fmt.Errorf("%s: %w", path, err)
	}
	return snap, shape.Meta, nil
}

// lastTwoSnapshots returns the two highest-n BENCH_<n>.json paths in dir,
// oldest first.
func lastTwoSnapshots(dir string) (older, newer string, err error) {
	re := regexp.MustCompile(`^BENCH_(\d+)\.json$`)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", "", err
	}
	var ns []int
	for _, e := range entries {
		if m := re.FindStringSubmatch(e.Name()); m != nil {
			n, _ := strconv.Atoi(m[1])
			ns = append(ns, n)
		}
	}
	if len(ns) < 2 {
		return "", "", fmt.Errorf("need at least two BENCH_<n>.json snapshots in %s, found %d", dir, len(ns))
	}
	sort.Ints(ns)
	older = filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", ns[len(ns)-2]))
	newer = filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", ns[len(ns)-1]))
	return older, newer, nil
}

func main() {
	tol := flag.Float64("tol", 15, "max allowed ns/op regression, percent")
	dir := flag.String("dir", ".", "directory holding BENCH_<n>.json snapshots")
	require := flag.String("require", "", "comma-separated benchmark-name substrings that must be present in the new snapshot")
	flag.Parse()

	var oldPath, newPath string
	switch flag.NArg() {
	case 0:
		var err error
		oldPath, newPath, err = lastTwoSnapshots(*dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench_diff:", err)
			os.Exit(2)
		}
	case 2:
		oldPath, newPath = flag.Arg(0), flag.Arg(1)
	default:
		fmt.Fprintln(os.Stderr, "usage: bench_diff [-tol pct] [-dir path] [old.json new.json]")
		os.Exit(2)
	}

	oldSnap, oldMeta, err := loadSnapshot(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_diff:", err)
		os.Exit(2)
	}
	newSnap, newMeta, err := loadSnapshot(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_diff:", err)
		os.Exit(2)
	}
	if !sameShape(oldMeta, newMeta) {
		fmt.Fprintf(os.Stderr, "bench_diff: machine shapes differ, not comparing: %s is %s, %s is %s\n",
			oldPath, oldMeta, newPath, newMeta)
		os.Exit(2)
	}

	names := make([]string, 0, len(newSnap))
	for name := range newSnap {
		if strings.HasPrefix(name, "_") {
			continue // snapshot metadata, not a benchmark
		}
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Printf("bench_diff: %s -> %s (tolerance %.0f%%)\n", oldPath, newPath, *tol)
	regressions := 0
	for _, name := range names {
		nw := newSnap[name]
		od, ok := oldSnap[name]
		if !ok {
			fmt.Printf("  NEW   %-50s %12.0f ns/op\n", name, nw.NsPerOp)
			continue
		}
		if od.NsPerOp <= 0 {
			continue
		}
		deltaPct := 100 * (nw.NsPerOp - od.NsPerOp) / od.NsPerOp
		status := "ok"
		if deltaPct > *tol {
			status = "REGRESSION"
			regressions++
		}
		fmt.Printf("  %-5s %-50s %12.0f -> %-12.0f ns/op  %+6.1f%%\n",
			status, name, od.NsPerOp, nw.NsPerOp, deltaPct)
	}
	for name := range oldSnap {
		if strings.HasPrefix(name, "_") {
			continue
		}
		if _, ok := newSnap[name]; !ok {
			fmt.Printf("  GONE  %s\n", name)
		}
	}
	if *require != "" {
		failed := 0
		for _, want := range strings.Split(*require, ",") {
			want = strings.TrimSpace(want)
			if want == "" {
				continue
			}
			// "substr", "substr:allocs=N", "substr:faster=REF@RATIO" or
			// "substr:maxns=N".
			substr, wantAllocs, maxNs := want, -1.0, 0.0
			fasterRef, fasterRatio := "", 0.0
			if cut := strings.Index(want, ":"); cut >= 0 {
				substr = want[:cut]
				cons := want[cut+1:]
				switch {
				case strings.HasPrefix(cons, "allocs="):
					v, err := strconv.ParseFloat(strings.TrimPrefix(cons, "allocs="), 64)
					if err != nil {
						fmt.Fprintf(os.Stderr, "bench_diff: bad allocs constraint in %q: %v\n", want, err)
						failed++
						continue
					}
					wantAllocs = v
				case strings.HasPrefix(cons, "faster="):
					spec := strings.TrimPrefix(cons, "faster=")
					at := strings.LastIndex(spec, "@")
					if at < 0 {
						fmt.Fprintf(os.Stderr, "bench_diff: faster constraint in %q wants REF@RATIO\n", want)
						failed++
						continue
					}
					v, err := strconv.ParseFloat(spec[at+1:], 64)
					if err != nil || v <= 0 {
						fmt.Fprintf(os.Stderr, "bench_diff: bad faster ratio in %q: %v\n", want, err)
						failed++
						continue
					}
					fasterRef, fasterRatio = spec[:at], v
				case strings.HasPrefix(cons, "maxns="):
					v, err := strconv.ParseFloat(strings.TrimPrefix(cons, "maxns="), 64)
					if err != nil || v <= 0 {
						fmt.Fprintf(os.Stderr, "bench_diff: bad maxns constraint in %q: %v\n", want, err)
						failed++
						continue
					}
					maxNs = v
				default:
					fmt.Fprintf(os.Stderr, "bench_diff: unknown constraint %q in requirement %q\n", cons, want)
					failed++
					continue
				}
			}
			found := false
			for name, entry := range newSnap {
				if strings.HasPrefix(name, "_") || !strings.Contains(name, substr) {
					continue
				}
				found = true
				if wantAllocs >= 0 {
					if entry.AllocsPerOp == nil {
						fmt.Fprintf(os.Stderr, "bench_diff: %s matches %q but reports no allocs/op\n", name, want)
						failed++
					} else if *entry.AllocsPerOp != wantAllocs {
						fmt.Fprintf(os.Stderr, "bench_diff: %s reports %g allocs/op, requirement %q wants %g\n",
							name, *entry.AllocsPerOp, want, wantAllocs)
						failed++
					}
				}
				if maxNs > 0 && entry.NsPerOp > maxNs {
					fmt.Fprintf(os.Stderr, "bench_diff: %s takes %g ns/op, requirement %q wants at most %g\n",
						name, entry.NsPerOp, want, maxNs)
					failed++
				}
				if fasterRef != "" {
					ref, ok := newSnap[fasterRef]
					if !ok || ref.NsPerOp <= 0 {
						fmt.Fprintf(os.Stderr, "bench_diff: requirement %q: reference benchmark %q missing from %s\n",
							want, fasterRef, newPath)
						failed++
					} else if speedup := ref.NsPerOp / entry.NsPerOp; speedup < fasterRatio {
						fmt.Fprintf(os.Stderr, "bench_diff: %s is %.2fx faster than %s, requirement %q wants %.2fx\n",
							name, speedup, fasterRef, want, fasterRatio)
						failed++
					}
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "bench_diff: required benchmark %q missing from %s\n", want, newPath)
				failed++
			}
		}
		if failed > 0 {
			os.Exit(1)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "bench_diff: %d benchmark(s) regressed more than %.0f%% in ns/op\n", regressions, *tol)
		os.Exit(1)
	}
	fmt.Println("bench_diff: no ns/op regressions beyond tolerance")
}
