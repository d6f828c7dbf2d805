#!/usr/bin/env bash
# Runs the perf sweeps with google-benchmark's JSON reporter and merges them
# into the recorded JSON files at the repo root:
#   BENCH_resemblance.json  <- perf_resemblance + perf_closure
#   BENCH_engine.json       <- perf_engine, plus the engine_trace phase
#                              breakdown and the incremental-vs-full speedup
#
#   BENCH_service.json      <- perf_service closed-loop loadgen (concurrent
#                              throughput + the service MetricsRegistry dump)
#
# Usage:
#   bench/run_benches.sh [--build-dir DIR] [--out FILE] [--engine-out FILE]
#                        [--service] [--service-out FILE] [--smoke]
#                        [--allow-debug]
#
# --service additionally runs the service-plane loadgen (skipped by default:
# it is a multi-threaded soak, not a google-benchmark sweep).
#
# Recorded numbers must come from an optimized build: unless --smoke or
# --allow-debug is given, the script refuses a build dir whose
# CMAKE_BUILD_TYPE is not Release. The detected build type is stamped into
# the merged JSON context either way, so a debug provenance can never pass
# silently again.
#
# --smoke caps every benchmark at --benchmark_min_time=0.01 so the script
# doubles as a ctest-safe liveness check (the JSON is still written, just
# with noisy numbers). Without it, benchmark's default min time applies and
# the merged JSON is suitable for recording in the repo. --out/--engine-out
# redirect the merged JSON away from the repo-root files — the ctest smoke
# uses them so a quick run never clobbers recorded numbers.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"
out_file="${repo_root}/BENCH_resemblance.json"
engine_out_file="${repo_root}/BENCH_engine.json"
service_out_file="${repo_root}/BENCH_service.json"
run_service=0
min_time=""
service_args=()
allow_debug=0
smoke=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir)
      build_dir="$2"
      shift 2
      ;;
    --out)
      out_file="$2"
      shift 2
      ;;
    --engine-out)
      engine_out_file="$2"
      shift 2
      ;;
    --service)
      run_service=1
      shift
      ;;
    --service-out)
      service_out_file="$2"
      shift 2
      ;;
    --smoke)
      min_time="--benchmark_min_time=0.01"
      service_args=(--smoke)
      smoke=1
      shift
      ;;
    --allow-debug)
      allow_debug=1
      shift
      ;;
    *)
      echo "unknown argument: $1" >&2
      exit 2
      ;;
  esac
done

# Provenance gate: numbers destined for the repo root must come from an
# optimized build. The ctest smoke runs against whatever build tree hosts
# it (often Debug/ASan), so --smoke bypasses the refusal but the stamp in
# the JSON still records what was measured.
build_type="unknown"
if [[ -f "${build_dir}/CMakeCache.txt" ]]; then
  build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
    "${build_dir}/CMakeCache.txt")"
  build_type="${build_type:-unspecified}"
fi
if [[ "${build_type}" != "Release" && "${smoke}" -eq 0 \
      && "${allow_debug}" -eq 0 ]]; then
  echo "refusing to record benchmarks from a '${build_type}' build" >&2
  echo "(${build_dir}); configure with -DCMAKE_BUILD_TYPE=Release or pass" >&2
  echo "--allow-debug / --smoke for throwaway numbers" >&2
  exit 3
fi

binaries=(perf_resemblance perf_closure)
engine_binaries=(perf_engine)
out_dir="$(mktemp -d)"
trap 'rm -rf "${out_dir}"' EXIT

run_bench() {
  local bin="$1" dest="$2"
  local path="${build_dir}/bench/${bin}"
  if [[ ! -x "${path}" ]]; then
    echo "missing ${path}; build first: cmake --build ${build_dir} -j" >&2
    exit 1
  fi
  echo "== ${bin}" >&2
  # shellcheck disable=SC2086  # min_time is intentionally word-split
  "${path}" --benchmark_format=json ${min_time} > "${dest}"
}

for bin in "${binaries[@]}"; do
  run_bench "${bin}" "${out_dir}/${bin}.json"
done
mkdir -p "${out_dir}/engine"
for bin in "${engine_binaries[@]}"; do
  run_bench "${bin}" "${out_dir}/engine/${bin}.json"
done

# The Engine's phase breakdown travels with the perf numbers.
trace_bin="${build_dir}/bench/engine_trace"
mkdir -p "${out_dir}/trace"
if [[ -x "${trace_bin}" ]]; then
  echo "== engine_trace" >&2
  "${trace_bin}" > "${out_dir}/trace/engine_trace.json"
else
  echo "missing ${trace_bin}; build first: cmake --build ${build_dir} -j" >&2
  exit 1
fi

# Merge: keep one context block (they describe the same host), concatenate
# the benchmark arrays in binary order, and attach the recorded seed
# baseline so the speedup base travels with the numbers.
merge() {
  python3 - "$@" <<'PY'
import json
import os
import sys

out_path, baseline_path, trace_path = sys.argv[1], sys.argv[2], sys.argv[3]
merged = {"context": None, "benchmarks": []}
build_type = os.environ.get("ECRINT_BUILD_TYPE", "unknown")
if baseline_path and os.path.exists(baseline_path):
    with open(baseline_path) as f:
        merged["seed_baseline"] = json.load(f)
if trace_path and os.path.exists(trace_path):
    with open(trace_path) as f:
        merged["phase_trace"] = json.load(f)
for path in sys.argv[4:]:
    with open(path) as f:
        report = json.load(f)
    if merged["context"] is None:
        merged["context"] = report.get("context", {})
    merged["benchmarks"].extend(report.get("benchmarks", []))
if merged["context"] is None:
    merged["context"] = {}
# Provenance stamp: the CMake build type of the tree that produced these
# numbers (checked against "Release" by the gate above and by tools/ci.sh).
merged["context"]["ecrint_build_type"] = build_type
merged["context"]["ecrint_release_build"] = build_type == "Release"
# The hardware threads this process may run on (what `nproc` prints), so a
# number recorded on one core is never read as a multi-core one.
merged["context"]["hardware_threads"] = len(os.sched_getaffinity(0))

# Asymptotic fits from ->Complexity() sweeps (e.g. the closure worklist
# kernel): surfaced top-level so regressions back toward N^3 are visible in
# a diff without re-deriving the fit from raw timings.
complexity_fits = {}
for b in merged["benchmarks"]:
    if b.get("run_type") == "aggregate" and b.get("aggregate_name") == "BigO":
        family = b["name"].split("_BigO")[0].split("/")[0]
        complexity_fits[family] = b.get("big_o", "").strip()
if complexity_fits:
    merged["complexity_fits"] = complexity_fits

baseline = {
    b["name"]: b["real_time"]
    for b in merged.get("seed_baseline", {}).get("benchmarks", [])
}
speedups = {}
for b in merged["benchmarks"]:
    base = baseline.get(b["name"])
    if base and b.get("real_time"):
        speedups[b["name"]] = round(base / b["real_time"], 2)
if speedups:
    merged["speedup_vs_seed"] = speedups

# Incremental-edit vs full-rebuild at matching workload sizes: the headline
# number of the Engine's dirty tracking.
times = {b["name"]: b["real_time"] for b in merged["benchmarks"]
         if b.get("real_time")}
incremental = {}
for name, full_time in times.items():
    prefix = "BM_EngineFullRebuild/"
    if not name.startswith(prefix):
        continue
    arg = name[len(prefix):]
    inc_time = times.get(f"BM_EngineIncrementalEdit/{arg}")
    if inc_time:
        incremental[arg] = round(full_time / inc_time, 2)
if incremental:
    merged["incremental_speedup"] = incremental

with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
print(f"wrote {out_path} ({len(merged['benchmarks'])} benchmarks)")
for name, s in sorted(speedups.items()):
    print(f"  {name}: {s}x vs seed")
for arg, s in sorted(incremental.items(), key=lambda kv: int(kv[0])):
    print(f"  incremental edit @{arg} classes: {s}x vs full rebuild")
PY
}

export ECRINT_BUILD_TYPE="${build_type}"
merge "${out_file}" "${repo_root}/bench/baseline_seed.json" "" \
  "${out_dir}"/*.json
merge "${engine_out_file}" "" "${out_dir}/trace/engine_trace.json" \
  "${out_dir}/engine"/*.json

# The service loadgen emits its own JSON (per-phase throughput, error
# tallies, the MetricsRegistry dump with per-verb p50/p95/p99); it exits
# nonzero on any CONFLICT or TIMEOUT, so the stage doubles as a soak check.
if [[ "${run_service}" -eq 1 ]]; then
  service_bin="${build_dir}/bench/perf_service"
  if [[ ! -x "${service_bin}" ]]; then
    echo "missing ${service_bin}; build first: cmake --build ${build_dir} -j" >&2
    exit 1
  fi
  echo "== perf_service" >&2
  "${service_bin}" "${service_args[@]}" > "${service_out_file}"
  echo "wrote ${service_out_file}"
fi
