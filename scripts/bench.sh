#!/usr/bin/env bash
# bench.sh — run the top-level hot-path benchmarks (and internal/tensor's
# BenchmarkElementwise) and snapshot them as
# BENCH_<n>.json (name -> ns/op, allocs/op, B/op) so successive PRs have
# a perf trajectory to compare against. The suite is run three times over
# and the snapshot keeps each benchmark's fastest pass: on a shared box a
# neighbour only ever slows a run, by 20-70 % for minutes at a time (so the
# passes are whole, minutes apart, not -count=3 back to back), and of seven
# single-pass snapshots of PR 20 each had 3 to 35 untouched benchmarks over
# bench_diff's 15 %. _meta.runs is the number of passes (snapshots before
# BENCH_20 have no such field: one).
#
# Usage: scripts/bench.sh [output.json]
#   Default output: BENCH_<n>.json with n = one past the highest index
#   there is (a PR that left no snapshot leaves a gap, and bench_diff
#   compares the two highest).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-}"
if [[ -z "$out" ]]; then
  n=0
  for f in BENCH_*.json; do
    [[ "$f" =~ ^BENCH_([0-9]+)\.json$ ]] && ((BASH_REMATCH[1] > n)) && n=${BASH_REMATCH[1]}
  done
  out="BENCH_$((n + 1)).json"
fi

benches='BenchmarkTrainEpoch$|BenchmarkDenseForwardBackward|BenchmarkEncodeArtifact|BenchmarkQueryBatch$|BenchmarkQueryLoop|BenchmarkQueryDuringRetrain|BenchmarkOracleFanout|BenchmarkOracleCampaign|BenchmarkCompiledForward|BenchmarkCompiledBatch|BenchmarkQuantizedForward|BenchmarkQuantizedQueryBatch|BenchmarkDeepUQ|BenchmarkMatMulKernels|BenchmarkQuantSweep|BenchmarkCoalescedQPS|BenchmarkFleetQPS|BenchmarkWireQPS|BenchmarkRoutedQPS|BenchmarkRegistryColdStart'
runs=3
raw=""
for ((r = 1; r <= runs; r++)); do
  raw+=$'\n'$(go test -run=NONE -bench="$benches" -benchtime=1s -count=1 .)
  # The element-wise kernels are timed against their reference loops, which
  # internal/tensor does not export: that benchmark lives beside them.
  raw+=$'\n'$(go test -run=NONE -bench='BenchmarkElementwise' -benchtime=1s -count=1 ./internal/tensor)
done
echo "$raw"

# The machine shape is recorded alongside the numbers, so snapshots from a
# 1-core container and a real multi-core box are distinguishable: _meta
# gets the online CPU count and GOMAXPROCS.
cpus="$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 1)"
gomaxprocs="${GOMAXPROCS:-$cpus}"
# Which inner kernels the tensor package selected for this build and CPU
# ("avx512", "avx2" or "none"): snapshots taken on different tiers do not
# compare, and bench_diff refuses to.
simd="$(go test -count=1 -run '^TestKernelPath$' -v ./internal/tensor | sed -n 's/.*simd=\([a-z0-9]*\).*/\1/p' | head -n 1)"
[[ -n "$simd" ]] || { echo "bench.sh: tensor's TestKernelPath did not report a kernel path" >&2; exit 1; }

echo "$raw" | awk -v out="$out" -v gomaxprocs="$gomaxprocs" -v cpus="$cpus" -v simd="$simd" -v runs="$runs" '
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
      if ($(i + 1) == "B/row") extra = extra sprintf(", \"bytes_per_row\": %s", $i)
      if ($(i + 1) == "ns/MAC") extra = extra sprintf(", \"ns_per_mac\": %s", $i)
      if ($(i + 1) == "ns/elem") extra = extra sprintf(", \"ns_per_elem\": %s", $i)
    }
    if (ns != "") {
      # The fastest run of a name is its entry, in first-run order.
      if (name in best && best[name] + 0 <= ns + 0) next
      if (!(name in best)) order[++n] = name
      best[name] = ns
      entry = sprintf("  \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s",
        name, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs)
      if (p50 != "") entry = entry sprintf(", \"p50_ns\": %s, \"p99_ns\": %s", p50, p99)
      entries[name] = entry extra "}"
    }
  }
  END {
    body = ""
    for (i = 1; i <= n; i++) body = body (body == "" ? "" : ",\n") entries[order[i]]
    printf "{\n" > out
    printf "  \"_meta\": {\"gomaxprocs\": %s, \"cpus\": %s, \"simd\": \"%s\", \"runs\": %s},\n", gomaxprocs, cpus, simd, runs > out
    printf "%s\n}\n", body > out
  }
'
echo "wrote $out"
