#!/usr/bin/env bash
# bench.sh — run the top-level hot-path benchmarks (and internal/tensor's
# BenchmarkElementwise) and snapshot them as
# BENCH_<n>.json (name -> ns/op, allocs/op, B/op) so successive PRs have
# a perf trajectory to compare against.
#
# Usage: scripts/bench.sh [output.json]
#   Default output: BENCH_<n>.json with n = first unused index.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-}"
if [[ -z "$out" ]]; then
  n=1
  while [[ -e "BENCH_${n}.json" ]]; do n=$((n + 1)); done
  out="BENCH_${n}.json"
fi

benches='BenchmarkTrainEpoch$|BenchmarkDenseForwardBackward|BenchmarkQueryBatch$|BenchmarkQueryLoop|BenchmarkQueryDuringRetrain|BenchmarkOracleFanout|BenchmarkOracleCampaign|BenchmarkCompiledForward|BenchmarkCompiledBatch|BenchmarkQuantizedForward|BenchmarkQuantizedQueryBatch|BenchmarkDeepUQ|BenchmarkMatMulParallelSlope|BenchmarkMatMulKernels|BenchmarkQuantSweep|BenchmarkCoalescedQPS|BenchmarkFleetQPS|BenchmarkWireQPS|BenchmarkResilientQPS|BenchmarkRoutedQPS|BenchmarkRegistryColdStart'
raw=$(go test -run=NONE -bench="$benches" -benchtime=1s -count=1 .)
# The element-wise kernels are timed against their reference loops, which
# internal/tensor does not export: that benchmark lives beside them.
raw+=$'\n'$(go test -run=NONE -bench='BenchmarkElementwise' -benchtime=1s -count=1 ./internal/tensor)
echo "$raw"

# The machine shape is recorded alongside the numbers: the matmul fan-out
# slope (BenchmarkMatMulParallelSlope) is only meaningful relative to the
# core count it ran on, so snapshots from a 1-core container and a real
# multi-core box are distinguishable. _meta gets the online CPU count and
# the full slope sweep so a reader can retune tensor.ParallelFlopThreshold
# (see README "Retuning the matmul fan-out threshold") without re-running.
cpus="$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 1)"
gomaxprocs="${GOMAXPROCS:-$cpus}"
# Which inner kernels the tensor package selected for this build and CPU
# ("avx2" or "none"): scalar and vector snapshots do not compare, and
# bench_diff refuses to.
simd="$(go test -count=1 -run '^TestKernelPath$' -v ./internal/tensor | sed -n 's/.*simd=\([a-z0-9]*\).*/\1/p' | head -n 1)"
[[ -n "$simd" ]] || { echo "bench.sh: tensor's TestKernelPath did not report a kernel path" >&2; exit 1; }

echo "$raw" | awk -v out="$out" -v gomaxprocs="$gomaxprocs" -v cpus="$cpus" -v simd="$simd" '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    # BenchmarkTrainEpoch grew sub-cases, and Go prints no line for a
    # parent that has them: the original case keeps its key in the snapshots.
    sub(/^BenchmarkTrainEpoch\/8x64x64x4$/, "BenchmarkTrainEpoch", name)
    ns = ""; bytes = ""; allocs = ""; p50 = ""; p99 = ""; extra = ""
    for (i = 2; i < NF; i++) {
      if ($(i + 1) == "ns/op") ns = $i
      if ($(i + 1) == "B/op") bytes = $i
      if ($(i + 1) == "allocs/op") allocs = $i
      if ($(i + 1) == "p50-ns") p50 = $i
      if ($(i + 1) == "p99-ns") p99 = $i
      if ($(i + 1) == "ns/sample-epoch") extra = extra sprintf(", \"ns_per_sample_epoch\": %s", $i)
      if ($(i + 1) == "rows/s") extra = extra sprintf(", \"rows_per_s\": %s", $i)
      if ($(i + 1) == "busy-share") extra = extra sprintf(", \"busy_share\": %s", $i)
      if ($(i + 1) == "ns/MAC") extra = extra sprintf(", \"ns_per_mac\": %s", $i)
      if ($(i + 1) == "ns/elem") extra = extra sprintf(", \"ns_per_elem\": %s", $i)
    }
    if (ns != "") {
      if (name ~ /^BenchmarkMatMulParallelSlope\//) {
        sub(/^BenchmarkMatMulParallelSlope\//, "", name)
        slopes[++m] = sprintf("\"%s\": %s", name, ns)
        next
      }
      entry = sprintf("  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s",
        name, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs)
      if (p50 != "") entry = entry sprintf(", \"p50_ns\": %s, \"p99_ns\": %s", p50, p99)
      entries[++n] = entry extra "}"
    }
  }
  END {
    slope = ""
    for (i = 1; i <= m; i++) slope = slope (i > 1 ? ", " : "") slopes[i]
    printf "{\n" > out
    printf "  \"_meta\": {\"gomaxprocs\": %s, \"cpus\": %s, \"simd\": \"%s\", \"parallel_slope_ns\": {%s}},\n", gomaxprocs, cpus, simd, slope > out
    for (i = 1; i <= n; i++) printf "%s%s\n", entries[i], (i < n ? "," : "") > out
    printf "}\n" > out
  }
'
echo "wrote $out"
