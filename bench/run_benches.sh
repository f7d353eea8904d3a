#!/usr/bin/env bash
# Runs the headline benchmark suites (relational-specification builds,
# algorithm-BT scaling, and end-to-end query serving over loopback HTTP) and
# distils their google-benchmark JSON into BENCH_PR<n>.json: one record per
# benchmark with the median wall time in milliseconds and the temporal
# horizon (|T| representatives) where the workload reports one.
#
# Usage: bench/run_benches.sh [build_dir] [output_json]
# The default output name is BENCH_PR${BENCH_PR}.json (BENCH_PR defaults to
# the current PR number below) so successive PRs don't overwrite each
# other's snapshots.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_PR${BENCH_PR:-10}.json}"
REPS="${BENCH_REPETITIONS:-3}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
GIT_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"

for bench in bench_spec_build bench_bt_scaling bench_serve_qps; do
  bin="$BUILD_DIR/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (run: cmake --build $BUILD_DIR --target $bench)" >&2
    exit 1
  fi
  echo "== $bench (repetitions=$REPS) =="
  # bench_spec_build honours CHRONOLOG_METRICS_OUT: after the (unmetered)
  # timing runs it re-runs representative workloads with a chronolog_obs
  # registry attached and dumps the per-phase histograms and counters,
  # which get merged into the output below.
  # bench_spec_build also honours CHRONOLOG_TRACE_OUT: a Chrome trace of
  # the largest spec-build configuration, copied next to the output JSON so
  # perf regressions come with an openable Perfetto timeline.
  metrics_env=()
  if [[ "$bench" == bench_spec_build ]]; then
    metrics_env=("CHRONOLOG_METRICS_OUT=$TMP/spec_metrics.json"
                 "CHRONOLOG_TRACE_OUT=$TMP/spec_trace.json")
  fi
  env "${metrics_env[@]}" "$bin" \
    --benchmark_repetitions="$REPS" \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json \
    --benchmark_out="$TMP/$bench.json" \
    --benchmark_out_format=json >/dev/null
done

if [[ -s "$TMP/spec_trace.json" ]]; then
  TRACE_OUT="${OUT%.json}.trace.json"
  cp "$TMP/spec_trace.json" "$TRACE_OUT"
  echo "wrote $TRACE_OUT (Chrome trace of the largest spec build)"
fi

python3 - "$TMP" "$OUT" "$GIT_COMMIT" <<'PY'
import json
import os
import sys

tmp_dir, out_path, git_commit = sys.argv[1], sys.argv[2], sys.argv[3]
# The commit hash ties the snapshot to the exact tree it measured.
records = {"_host": {"cpus": os.cpu_count(), "git_commit": git_commit}}

# chronolog_obs dump from the metered spec-build pass: the header records
# std::thread::hardware_concurrency() as the engine saw it, and "_metrics"
# carries the per-phase histograms and counters.
metrics_path = f"{tmp_dir}/spec_metrics.json"
if os.path.exists(metrics_path):
    with open(metrics_path) as fh:
        dump = json.load(fh)
    records["_host"]["hardware_concurrency"] = dump["hardware_concurrency"]
    records["_metrics"] = {
        "histograms": dump["metrics"]["histograms"],
        "counters": dump["metrics"]["counters"],
        "trace_events": dump["trace_events"],
    }
for suite in ("bench_spec_build", "bench_bt_scaling", "bench_serve_qps"):
    with open(f"{tmp_dir}/{suite}.json") as fh:
        report = json.load(fh)
    for bench in report["benchmarks"]:
        # Aggregate-only output: keep the median rows.
        if bench.get("aggregate_name") != "median":
            continue
        name = bench["run_name"]
        assert bench["time_unit"] == "ms", (name, bench["time_unit"])
        # Workload counters (T_size) are flattened into the entry by
        # google-benchmark; an absent counter means no reported horizon.
        record = {
            "suite": suite,
            "median_wall_ms": round(bench["real_time"], 3),
        }
        horizon = bench.get("T_size")
        record["horizon"] = int(horizon) if horizon is not None else None
        records[name] = record

with open(out_path, "w") as fh:
    json.dump(records, fh, indent=2, sort_keys=True)
    fh.write("\n")
print(f"wrote {out_path} ({len(records)} benchmarks)")
PY
