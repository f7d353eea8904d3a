#!/usr/bin/env bash
# CI entry point: a regular Release build + full ctest run, the
# chronolog-lint gate over every shipped example program, a chronolog_flow
# soundness gate (static period/horizon bounds checked against the dynamic
# detector), a clang-tidy pass (cppcheck fallback; skipped when neither
# binary is present), a metrics-liveness check of the
# chronolog_obs instrumentation, a perf smoke gate comparing two BT hot-path
# benchmarks plus the loopback POST /query round-trips (close-per-request
# and keep-alive) against the committed BENCH_PR10.json baseline, a
# chronolog-serve gate (Prometheus exposition + Chrome trace + POST /query
# answers cross-checked against the tddsh REPL oracle — once over
# close-per-request connections, once over a single persistent HTTP/1.1
# connection with the reuse counters asserted — + request-id round-trip
# into response/slow-log/trace, a /statements scrape with exact shape
# counts, an /explain rewrite cross-check, no-5xx assertion + clean
# SIGINT shutdown), the perfbench smoke test (the BENCHMARK.json harness
# builds and answers), a work-counter gate pinning the traced materialize
# workload's evaluation counters, a serving counter gate pinning the
# traced serve workloads' oracle lookups and bounding their allocations
# per request, an AddressSanitizer/UBSan build
# (CHRONOLOG_SANITIZE, see CMakeLists.txt) with a full ctest run, and a
# ThreadSanitizer build running the serve, statements and metrics suites.
#
# Usage: bench/ci.sh [build_dir] [sanitizer_build_dir] [tsan_build_dir]
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
SAN_BUILD_DIR="${2:-build-asan}"
TSAN_BUILD_DIR="${3:-build-tsan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== release build + tests ($BUILD_DIR) =="
cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

# chronolog-lint gate: every shipped example program must lint clean
# (exit 0, even with warnings promoted to errors), and the seeded-bad
# fixtures must be rejected — a lint binary that stops finding anything
# fails CI just like one that starts rejecting good programs.
echo "== chronolog-lint gate =="
LINT="$BUILD_DIR/tools/chronolog-lint"
for program in examples/programs/*.tdl; do
  echo "lint: $program"
  "$LINT" --strict "$program"
done
# alarms.tdl is the shipped inflationary witness: the Theorem 5.2 pass must
# accept it (ski_schedule is non-inflationary by design, so no blanket run).
"$LINT" --strict --check-inflationary examples/programs/alarms.tdl
if "$LINT" --strict tests/data/bad_lint.tdl >/dev/null; then
  echo "lint gate: bad_lint.tdl unexpectedly passed --strict" >&2
  exit 1
fi
if "$LINT" tests/data/bad_parse.tdl 2>/dev/null; then
  echo "lint gate: bad_parse.tdl unexpectedly parsed" >&2
  exit 1
fi
echo "lint gate: ok"

# chronolog_flow soundness gate: --analyze must run clean (exit 0 — the
# analyses may warn, e.g. A002 on non-periodic-certified SCCs, but must
# never crash or mis-parse) over every shipped example, and the soundness
# suite (tests/flow_soundness_test.cc) re-checks the static bounds against
# the dynamic detector over the same examples plus the workload-generator
# programs: bounded => detected period 1 within the static horizon, and the
# static period divisor divides the detected period.
echo "== chronolog_flow gate (static bounds vs dynamic detector) =="
for program in examples/programs/*.tdl; do
  echo "analyze: $program"
  "$LINT" --analyze "$program" >/dev/null
done
"$BUILD_DIR/tests/flow_soundness_test"
echo "flow gate: ok"

# clang-tidy over the library and tool sources via the compile database.
# The check set lives in .clang-tidy. When clang-tidy is not installed,
# cppcheck steps in as the fallback analyzer over the same compile database
# (CMAKE_EXPORT_COMPILE_COMMANDS is on unconditionally, see CMakeLists.txt);
# only when neither is present does the stage skip with a warning — the
# g++-only CI image still runs the rest.
echo "== clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -quiet -p "$BUILD_DIR" "src/.*\.cc" "tools/.*\.cpp"
  else
    find src tools -name '*.cc' -o -name '*.cpp' | \
      xargs clang-tidy -quiet -p "$BUILD_DIR"
  fi
elif command -v cppcheck >/dev/null 2>&1; then
  echo "clang-tidy: not installed, falling back to cppcheck"
  cppcheck --project="$BUILD_DIR/compile_commands.json" \
    --file-filter='src/*' --file-filter='tools/*' \
    --enable=warning,portability --inline-suppr \
    --suppress=missingIncludeSystem \
    --error-exitcode=1 -q
else
  echo "clang-tidy: neither clang-tidy nor cppcheck installed, skipping" \
       "(set up LLVM or cppcheck to enable)"
fi

# chronolog_obs liveness: run the metered spec-build pass and fail if any
# histogram stayed empty. Instruments are created at phase *entry*, so an
# empty histogram after a metered run means an instrumented phase never
# recorded — dead instrumentation, not an idle phase.
# The repo benchmark (BENCHMARK.json) compiles perfbench/ against the engine
# headers, including the evaluator option structs; its smoke test builds it
# and checks every workload's result line, so a header change that breaks
# the benchmark build or its answers fails here rather than at bench time.
echo "== perfbench smoke test =="
python3 perfbench/smoke_test.py

# Work-counter gate: the traced materialize workload (seed 7) must do
# exactly the pinned amount of evaluation and period-detection work (the
# detectors' horizons and doubling probes). These counts are
# machine-independent and do not depend on the run length, so they are
# gated exactly where wall time cannot be. A change that alters the work
# done (a new join order, a different fixpoint schedule) updates the pins
# here and gives the reason in CHANGES.md.
echo "== work-counter gate (traced materialize, seed 7) =="
python3 perfbench/run.py --workload materialize --seed 7 --seconds 3 \
  --trace 1 2>"$BUILD_DIR/counter_gate_build.log" | tail -n 1 \
  >"$BUILD_DIR/counter_gate.json"
python3 - "$BUILD_DIR/counter_gate.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as fh:
    result = json.load(fh)
assert result["correct"] and result["failed"] == 0, result
metrics = {name: m["value"] for name, m in result["metrics"].items()}
EXACT = {"eval.match_steps": 7385676,
         "eval.derived": 5406462,
         "eval.inserted": 1928996,
         "spec.detection_horizon": 63909,
         "period.doublings": 10}
AT_MOST = {"eval.allocs_per_derived": 0.0732}
failures = []
for name, pinned in EXACT.items():
    if metrics.get(name) != pinned:
        failures.append(f"{name} = {metrics.get(name)}, pinned {pinned}")
for name, limit in AT_MOST.items():
    if metrics.get(name) is None or metrics[name] > limit:
        failures.append(f"{name} = {metrics.get(name)}, limit {limit}")
if failures:
    sys.exit("counter gate: " + "; ".join(failures))
print("counter gate: " +
      ", ".join(f"{name} = {metrics[name]}" for name in [*EXACT, *AT_MOST]))
PY

# Serving counter gate: the traced serve workloads (seed 7) must answer a
# ground atom with exactly one oracle lookup — Prop. 3.1's canonicalise
# plus one lookup in B, with no per-request walk of B — and the scan
# workload with the pinned lookup count of its fixed query stream. The
# per-request allocation counts are bounded at the measured values plus a
# little slack (a few allocations vary with server timing).
echo "== serving counter gate (traced serve_point/serve_scan, seed 7) =="
for workload in serve_point serve_scan; do
  python3 perfbench/run.py --workload "$workload" --seed 7 --seconds 3 \
    --trace 1 2>"$BUILD_DIR/${workload}_gate_build.log" | tail -n 1 \
    >"$BUILD_DIR/${workload}_gate.json"
done
python3 - "$BUILD_DIR/serve_point_gate.json" \
  "$BUILD_DIR/serve_scan_gate.json" <<'PY'
import json
import sys

EXACT = {"serve_point": {"query.oracle_lookups_per_req": 1},
         "serve_scan": {"query.oracle_lookups_per_req": 1571.4920634920634}}
AT_MOST = {"serve_point": {"query.allocs_per_req": 22.0},
           "serve_scan": {"query.allocs_per_req": 280.0}}
failures = []
report = []
for workload, path in zip(("serve_point", "serve_scan"), sys.argv[1:3]):
    with open(path) as fh:
        result = json.load(fh)
    assert result["correct"] and result["failed"] == 0, (workload, result)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for name, pinned in EXACT[workload].items():
        if metrics.get(name) is None or abs(metrics[name] - pinned) > 1e-6:
            failures.append(f"{workload} {name} = {metrics.get(name)}, "
                            f"pinned {pinned}")
    for name, limit in AT_MOST[workload].items():
        if metrics.get(name) is None or metrics[name] > limit:
            failures.append(f"{workload} {name} = {metrics.get(name)}, "
                            f"limit {limit}")
    report += [f"{workload} {name} = {metrics.get(name)}"
               for name in [*EXACT[workload], *AT_MOST[workload]]]
if failures:
    sys.exit("serving counter gate: " + "; ".join(failures))
print("serving counter gate: " + ", ".join(report))
PY

echo "== metrics liveness (metered spec-build pass) =="
CHRONOLOG_METRICS_OUT="$BUILD_DIR/spec_metrics.json" \
  "$BUILD_DIR/bench/bench_spec_build" \
  --benchmark_filter='BM_SpecSki/1$' >/dev/null
python3 - "$BUILD_DIR/spec_metrics.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as fh:
    dump = json.load(fh)
histograms = dump["metrics"]["histograms"]
if not histograms:
    sys.exit("metrics liveness: no histograms collected at all")
empty = sorted(name for name, h in histograms.items() if h["count"] == 0)
if empty:
    sys.exit("metrics liveness: empty histograms: " + ", ".join(empty))
print(f"metrics liveness: {len(histograms)} histograms, all non-empty "
      f"(hardware_concurrency={dump['hardware_concurrency']})")
PY

# Perf smoke gate: two representative BT benchmarks (the even-chain depth
# sweep and the random-graph path workload) plus the single-client POST
# /query round-trips — close-per-request and keep-alive at 256 requests per
# connection — against the committed BENCH_PR10.json baseline. A median
# above the per-benchmark limit fails — a cheap tripwire for accidental
# hot-path regressions, not a full bench run. The serve round-trips get a
# wider limit (1.5x) because loopback latency on shared CI hosts is far
# noisier than the in-process BT workloads.
# Set CHRONOLOG_SKIP_PERF_GATE=1 on hosts that are slower than the baseline
# machine (the committed medians are host-specific).
echo "== perf smoke gate (hot paths vs BENCH_PR10.json) =="
if [[ "${CHRONOLOG_SKIP_PERF_GATE:-0}" == 1 ]]; then
  echo "perf gate: skipped (CHRONOLOG_SKIP_PERF_GATE=1)"
else
  "$BUILD_DIR/bench/bench_bt_scaling" \
    --benchmark_filter='BM_BtDepthLinear/100000$|BM_BtPathRandomGraph/256$' \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json \
    --benchmark_out="$BUILD_DIR/perf_smoke.json" \
    --benchmark_out_format=json >/dev/null
  "$BUILD_DIR/bench/bench_serve_qps" \
    --benchmark_filter='BM_ServePostQuery/real_time/threads:1$|BM_ServePostQueryKeepAlive/256/real_time/threads:1$' \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json \
    --benchmark_out="$BUILD_DIR/perf_smoke_serve.json" \
    --benchmark_out_format=json >/dev/null
  python3 - "$BUILD_DIR/perf_smoke.json" "$BUILD_DIR/perf_smoke_serve.json" \
    BENCH_PR10.json <<'PY'
import json
import sys

benchmarks = []
for path in sys.argv[1:3]:
    with open(path) as fh:
        benchmarks.extend(json.load(fh)["benchmarks"])
with open(sys.argv[3]) as fh:
    baseline = json.load(fh)

# Loopback HTTP on a shared host jitters much more than in-process evaluation.
LIMITS = {"BM_ServePostQuery/real_time/threads:1": 1.50,
          "BM_ServePostQueryKeepAlive/256/real_time/threads:1": 1.50}

failures = []
checked = 0
for bench in benchmarks:
    if bench.get("aggregate_name") != "median":
        continue
    name = bench["run_name"]
    base = baseline.get(name)
    if base is None:
        sys.exit(f"perf gate: {name} missing from committed baseline")
    assert bench["time_unit"] == "ms", (name, bench["time_unit"])
    measured = bench["real_time"]
    allowed = base["median_wall_ms"] * LIMITS.get(name, 1.10)
    checked += 1
    status = "ok" if measured <= allowed else "REGRESSION"
    print(f"perf gate: {name}: {measured:.2f} ms "
          f"(baseline {base['median_wall_ms']:.2f} ms, limit {allowed:.2f}) "
          f"{status}")
    if measured > allowed:
        failures.append(name)
if checked != 4:
    sys.exit(f"perf gate: expected 4 medians, saw {checked}")
if failures:
    sys.exit("perf gate: regression in " + ", ".join(failures) +
             " (CHRONOLOG_SKIP_PERF_GATE=1 to bypass on slower hosts)")
PY
fi

# chronolog-serve gate: start the server on an ephemeral port against the
# non-progressive token-ring fixture (its spec build routes through the
# doubling detector + semi-naive fixpoint, so the fixpoint.* family is
# live) with a warm-up query (query.* family), scrape /healthz + /metrics +
# /trace, validate the Prometheus exposition (well-formed lines, TYPE
# declarations, monotone cumulative buckets, required families), round-trip
# POST /query and cross-check the answer rows + rewrite rule against what
# the tddsh REPL prints for the same query over the same program, require
# the error statuses (404 unknown database, 400 malformed JSON) and zero
# serve.responses_5xx, then SIGINT and require a clean exit.
echo "== serve gate (chronolog-serve scrape) =="
SERVE="$BUILD_DIR/tools/chronolog-serve"
SERVE_PORT_FILE="$BUILD_DIR/serve_port"
SERVE_LOG="$BUILD_DIR/serve_gate.log"
rm -f "$SERVE_PORT_FILE" "$SERVE_LOG"
# --slow-query-ms=0 turns the slow-query log into an every-query log, so the
# request-id round-trip below can assert its structured line appeared.
"$SERVE" --port=0 --port-file="$SERVE_PORT_FILE" \
  --query='exists T (tok(T, a0))' --slow-query-ms=0 \
  tests/data/token_ring.tdl >/dev/null 2>"$SERVE_LOG" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$SERVE_PORT_FILE" ]] && break
  sleep 0.1
done
if [[ ! -s "$SERVE_PORT_FILE" ]]; then
  echo "serve gate: port file never appeared" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
python3 - "$(cat "$SERVE_PORT_FILE")" <<'PY'
import json
import re
import sys
import urllib.request

port = sys.argv[1]


def get(path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as resp:
        return resp.read().decode()


health = json.loads(get("/healthz"))
assert health["status"] == "ok", health

text = get("/metrics")
metric_line = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9][0-9.e+-]*$')
types = {}
buckets = {}  # family -> list of (le, cumulative_count)
for line in text.splitlines():
    if line.startswith("# TYPE "):
        _, _, name, kind = line.split(" ")
        types[name] = kind
        continue
    if line.startswith("#"):
        continue
    if not metric_line.match(line):
        sys.exit(f"serve gate: malformed exposition line: {line!r}")
    name, value = line.split(" ")
    m = re.match(r'^(.*)_bucket\{le="([^"]+)"\}$', name)
    if m:
        buckets.setdefault(m.group(1), []).append(
            (float("inf") if m.group(2) == "+Inf" else float(m.group(2)),
             float(value)))
for family, rows in buckets.items():
    assert types.get(family) == "histogram", f"{family}: no histogram TYPE"
    les = [le for le, _ in rows]
    counts = [c for _, c in rows]
    assert les == sorted(les), f"{family}: le values not sorted"
    assert les[-1] == float("inf"), f"{family}: missing +Inf bucket"
    assert counts == sorted(counts), f"{family}: non-monotone buckets"
for family in ("query_evaluations", "query_latency_ns", "fixpoint_rounds",
               "fixpoint_round_derive_ns"):
    hit = [n for n in types if n == family]
    assert hit, f"serve gate: required family {family} missing"
assert float(
    [l for l in text.splitlines() if l.startswith("query_evaluations ")][0]
    .split(" ")[1]) >= 1, "query.* family empty despite warm-up query"

trace = json.loads(get("/trace"))
assert isinstance(trace["traceEvents"], list) and trace["traceEvents"], \
    "serve gate: /trace returned no events"

print(f"serve gate: {len(types)} families scraped, "
      f"{len(buckets)} histograms monotone, "
      f"{len(trace['traceEvents'])} trace events")
PY

# POST /query round-trip, cross-checked against the tddsh REPL as the
# answer oracle: both paths evaluate the same query over the same compiled
# specification, so the rows and the rewrite rule must agree exactly.
ORACLE_OUT="$BUILD_DIR/serve_oracle.txt"
echo '?- tok(T, a0).' | \
  "$BUILD_DIR/examples/tddsh" tests/data/token_ring.tdl > "$ORACLE_OUT"
python3 - "$(cat "$SERVE_PORT_FILE")" "$ORACLE_OUT" <<'PY'
import json
import re
import sys
import urllib.error
import urllib.request

port, oracle_path = sys.argv[1], sys.argv[2]


def post_query(body):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/query", data=body.encode(), method="POST")
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


# The oracle: tddsh prints one "T = <t>" line per answer row and a rewrite
# footer "rewrite rule <lhs> -> 0: ... t + <p>k".
with open(oracle_path) as fh:
    oracle_text = fh.read()
oracle_rows = [[int(m)] for m in re.findall(r"T = (\d+)", oracle_text)]
rewrite = re.search(r"rewrite rule (\d+) -> 0:.*t \+ (\d+)k", oracle_text)
assert oracle_rows, f"serve gate: tddsh oracle produced no rows:\n{oracle_text}"
assert rewrite, f"serve gate: tddsh oracle printed no rewrite:\n{oracle_text}"

status, answer = post_query(
    '{"query":"tok(T, a0)","database":"default"}')
assert status == 200, (status, answer)
assert answer["boolean"] is True, answer
assert answer["rows"] == oracle_rows, (answer["rows"], oracle_rows)
assert answer["rewrite"]["lhs"] == int(rewrite.group(1)), answer
assert answer["rewrite"]["p"] == int(rewrite.group(2)), answer
assert answer["partial"] is False and answer["truncated"] is False, answer

status, err = post_query('{"query":"tok(T, a0)","database":"nope"}')
assert status == 404, (status, err)
status, err = post_query('{"query":')
assert status == 400, (status, err)

# No request above (nor any earlier scrape) may have produced a 5xx.
with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics") as resp:
    metrics = resp.read().decode()
for line in metrics.splitlines():
    if line.startswith("serve_responses_5xx "):
        assert float(line.split(" ")[1]) == 0, line
ok_lines = [l for l in metrics.splitlines()
            if l.startswith("serve_responses_2xx ")]
assert ok_lines and float(ok_lines[0].split(" ")[1]) >= 4, ok_lines

print(f"serve gate: POST /query matches tddsh oracle "
      f"({len(oracle_rows)} rows, rewrite {rewrite.group(1)} -> 0 "
      f"mod {rewrite.group(2)}), no 5xx responses")
PY

# Keep-alive leg of the serve gate: the urllib checks above send
# `Connection: close` per request, so they never exercise connection reuse.
# http.client.HTTPConnection holds one HTTP/1.1 socket open across
# requests; run the oracle query several times plus a /metrics scrape over
# a single connection, require every answer to match, and require the
# serve.connections_reused counter to have advanced by at least the number
# of follow-up requests — proof the server actually kept the socket, not
# just that the client asked it to.
python3 - "$(cat "$SERVE_PORT_FILE")" "$ORACLE_OUT" <<'PY'
import http.client
import json
import re
import sys

port, oracle_path = sys.argv[1], sys.argv[2]

with open(oracle_path) as fh:
    oracle_rows = [[int(m)] for m in re.findall(r"T = (\d+)", fh.read())]
assert oracle_rows, "serve gate: tddsh oracle produced no rows"

conn = http.client.HTTPConnection("127.0.0.1", int(port))
body = '{"query":"tok(T, a0)","database":"default"}'
requests_on_conn = 0
for _ in range(5):
    conn.request("POST", "/query", body=body.encode(),
                 headers={"Content-Type": "application/json"})
    resp = conn.getresponse()
    answer = json.loads(resp.read().decode())
    requests_on_conn += 1
    assert resp.status == 200, (resp.status, answer)
    assert answer["rows"] == oracle_rows, (answer["rows"], oracle_rows)

conn.request("GET", "/metrics")
resp = conn.getresponse()
metrics = resp.read().decode()
requests_on_conn += 1
assert resp.status == 200, resp.status
conn.close()


def counter(name):
    lines = [l for l in metrics.splitlines() if l.startswith(name + " ")]
    assert lines, f"serve gate: counter {name} missing from /metrics"
    return float(lines[0].split(" ")[1])


# All requests after the first rode the same socket.
reused = counter("serve_connections_reused")
assert reused >= requests_on_conn - 1, (reused, requests_on_conn)
assert counter("serve_connections_opened") >= 1
assert counter("serve_responses_5xx") == 0

print(f"serve gate: keep-alive connection served {requests_on_conn} "
      f"requests (connections_reused={reused:.0f}), answers stable, "
      f"no 5xx responses")
PY

# chronolog_qstats leg: one query with a client-supplied request id must be
# traceable end-to-end — echoed in the response JSON, sliced out of
# /trace?request=ID, and counted under its normalized shape in /statements
# (reset first, so the counts are exact, not dependent on the earlier
# legs). /explain for the same query must report the same rewrite rule the
# tddsh oracle printed, without executing (its call must NOT appear in the
# statement counts). The structured query.slow log line is asserted after
# shutdown, once the server has flushed and exited.
python3 - "$(cat "$SERVE_PORT_FILE")" "$ORACLE_OUT" <<'PY'
import json
import re
import sys
import urllib.request

port, oracle_path = sys.argv[1], sys.argv[2]
REQUEST_ID = "ci-qstats-1"


def get(path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}") as resp:
        return resp.read().decode()


def post(path, body, request_id=None):
    headers = {"Content-Type": "application/json"}
    if request_id is not None:
        headers["X-Request-Id"] = request_id
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=body.encode(),
        headers=headers, method="POST")
    with urllib.request.urlopen(req) as resp:
        return json.loads(resp.read().decode())


with open(oracle_path) as fh:
    oracle_text = fh.read()
rewrite = re.search(r"rewrite rule (\d+) -> 0:.*t \+ (\d+)k", oracle_text)
assert rewrite, "serve gate: tddsh oracle printed no rewrite"

# Fresh statement window, then two tracked queries of known shapes.
get("/statements?reset=1")
answer = post("/query", '{"query":"tok(T, a0)"}', REQUEST_ID)
assert answer["request_id"] == REQUEST_ID, answer
other = post("/query", '{"query":"exists T (tok(T, a1))"}')
assert other["request_id"].startswith("q-"), other  # server-generated id

# The request id slices the trace down to this query's spans.
trace = json.loads(get(f"/trace?request={REQUEST_ID}"))
spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
assert spans, "serve gate: /trace?request= returned no spans"
for span in spans:
    assert span["args"]["request"] == REQUEST_ID, span

# EXPLAIN agrees with the tddsh oracle on the rewrite rule — and does not
# execute, so it must not advance the statement counts.
explain = post("/explain", '{"query":"tok(T, a0)"}', "ci-explain-1")
assert explain["request_id"] == "ci-explain-1", explain
assert explain["executed"] is False, explain
assert explain["shape"] == "tok(T, ?)", explain
assert explain["rewrite"]["lhs"] == int(rewrite.group(1)), explain
assert explain["rewrite"]["p"] == int(rewrite.group(2)), explain
assert explain["plans"], "serve gate: /explain reported no rule plans"

stats = json.loads(get("/statements"))
by_shape = {s["shape"]: s for s in stats["statements"]}
assert set(by_shape) == {"tok(T, ?)", "exists T (tok(T, ?))"}, by_shape
assert by_shape["tok(T, ?)"]["calls"] == 1, by_shape
assert by_shape["exists T (tok(T, ?))"]["calls"] == 1, by_shape
assert by_shape["tok(T, ?)"]["eval_ns"]["count"] == 1, by_shape
assert by_shape["tok(T, ?)"]["eval_ns"]["p50"] > 0, by_shape

print(f"serve gate: request id {REQUEST_ID} round-tripped through "
      f"response JSON, {len(spans)} trace spans, and /statements; "
      f"/explain rewrite matches the tddsh oracle")
PY
kill -INT "$SERVE_PID"
wait "$SERVE_PID"  # non-zero exit (unclean shutdown) fails the gate via set -e

# The structured slow-query log (--slow-query-ms=0 logs every served query):
# exactly one query.slow line carries the client-supplied request id, and it
# names the normalized shape, never the raw query text.
python3 - "$SERVE_LOG" <<'PY'
import json
import sys

with open(sys.argv[1]) as fh:
    lines = [json.loads(l) for l in fh if l.strip().startswith("{")]
slow = [l for l in lines if l.get("event") == "query.slow"]
assert slow, "serve gate: --slow-query-ms=0 produced no query.slow lines"
mine = [l for l in slow if l.get("request_id") == "ci-qstats-1"]
assert len(mine) == 1, f"expected exactly one line for ci-qstats-1: {mine}"
line = mine[0]
assert line["shape"] == "tok(T, ?)", line
assert "a0" not in json.dumps(line), line  # constants stay out of the log
assert line["eval_ms"] >= 0 and line["deadline_ms"] == 1000, line
print(f"serve gate: {len(slow)} query.slow lines, request id present "
      f"with shape {line['shape']!r}")
PY
echo "serve gate: ok"

echo "== sanitizer build + tests ($SAN_BUILD_DIR) =="
# RelWithDebInfo defines NDEBUG by default; overriding its flags keeps -O2 -g
# and turns the asserts back on (Relation::Probe's row-id check, MatchRow's
# arity check), so the sanitizer run also checks the invariants.
cmake -B "$SAN_BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g" \
  "-DCHRONOLOG_SANITIZE=address;undefined"
cmake --build "$SAN_BUILD_DIR" -j "$JOBS"
# halt_on_error makes UBSan findings fail the run instead of just logging.
ASAN_OPTIONS="detect_leaks=1" UBSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "$SAN_BUILD_DIR" --output-on-failure -j "$JOBS"

# ThreadSanitizer: a separate tree (TSan is incompatible with ASan, the
# CMake cache enforces that) running the suites with concurrent threads —
# the HTTP server and query endpoints, the statement store, and the
# metrics registry, trace buffer and logger they record into. Evaluation
# itself is sequential.
echo "== thread sanitizer build + concurrency tests ($TSAN_BUILD_DIR) =="
cmake -B "$TSAN_BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCHRONOLOG_SANITIZE=thread
cmake --build "$TSAN_BUILD_DIR" -j "$JOBS"
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -j "$JOBS" \
  -R 'Http|Obs|QueryEndpoint|Statement|Metrics|Trace|Log'

echo "ci.sh: all checks passed"
