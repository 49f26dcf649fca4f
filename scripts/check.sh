#!/usr/bin/env bash
# Tier-1 verify with warnings-as-errors: configure + build with
# -Wall -Wextra -Werror (the REPTILE_WERROR preset), run ctest, gate the
# observability overhead bench and the FIST and COVID accuracy headlines,
# then smoke the HTTP server binary (start reptile_serve on an ephemeral
# port, probe /healthz and /v1/recommend, assert a clean SIGTERM shutdown)
# and replay the loadgen scenarios against it — then build the library and
# tests again and re-run the whole suite twice more: under Address+UBSan
# (with libstdc++ assertions) and under ThreadSanitizer, so every change
# runs each test under both memory-error and race detection. Every stage
# must stay green. Builds and test runs use one job per CPU. Set
# REPTILE_SKIP_TSAN=1 to skip the TSan pass (e.g. on toolchains without
# libtsan); REPTILE_SKIP_ASAN=1 likewise for the ASan pass;
# REPTILE_SKIP_SMOKE=1 skips the server smoke (e.g. no curl, no loopback).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build-check}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-build-asan}"

# A bench stage that "passed" without leaving its JSON behind is a silent
# no-op, not a pass: every expected BENCH_*.json must exist and be non-empty
# before any grep gates run against it.
require_bench_json() {
  if [[ ! -f "$1" ]]; then
    echo "FAIL: expected bench output $1 was never written" >&2
    exit 1
  fi
  if [[ ! -s "$1" ]]; then
    echo "FAIL: expected bench output $1 is empty" >&2
    exit 1
  fi
}

# Starts "$BUILD_DIR/reptile_serve --demo --port 0" with the extra flags given
# after the stage name, then waits for its "listening on 127.0.0.1:<port>"
# line: sets SERVE_PID and PORT, and sets an EXIT trap that kills the server
# if the script stops before the stage's own clean shutdown (which clears the
# trap). A server that exits first, or never reports its port within 10 s,
# fails the script with its log.
start_server() {
  local name="$1"
  shift
  local log
  log="$(mktemp)"
  "$BUILD_DIR/reptile_serve" --demo --port 0 "$@" > "$log" 2>&1 &
  SERVE_PID=$!
  trap 'kill -9 "$SERVE_PID" 2>/dev/null || true' EXIT
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log")"
    [[ -n "$PORT" ]] && return 0
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$log"; exit 1; }
    sleep 0.1
  done
  echo "$name never reported its port"
  cat "$log"
  exit 1
}

cmake -B "$BUILD_DIR" -S . -DREPTILE_WERROR=ON "$@"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# The gate follows the configured tree, not whatever binary is on disk: with
# benchmarks ON the build above has just rebuilt obs_overhead (a missing
# binary fails the script); with them OFF a binary left by an earlier
# configure is stale, so the gate says it is skipped instead.
if grep -Eiq '^REPTILE_BUILD_BENCHMARKS:BOOL=(ON|1|TRUE|YES|Y)$' "$BUILD_DIR/CMakeCache.txt"; then
  echo "--- observability bench: tracing + metrics must cost <2% on the fig08 panel"
  # Emits BENCH_observability.json (traced vs untraced min-of-repeats latency
  # and the span/histogram counts) and exits non-zero when the traced arm
  # recorded nothing or blew the overhead budget; the greps double-check the
  # recorded contract.
  "$BUILD_DIR/bench/obs_overhead" "$BUILD_DIR/BENCH_observability.json"
  require_bench_json "$BUILD_DIR/BENCH_observability.json"
  grep -q '"within_budget":true' "$BUILD_DIR/BENCH_observability.json"
  grep -q '"spans_recorded":' "$BUILD_DIR/BENCH_observability.json"
  if grep -q '"spans_recorded":0,' "$BUILD_DIR/BENCH_observability.json"; then
    echo "FAIL: observability bench recorded zero spans" >&2
    exit 1
  fi
  echo "--- observability bench passed"

  echo "--- accuracy benches: multi-attribute auxiliaries through the materialised path"
  # The abstract's two accuracy claims, end to end: the FIST study's
  # village x year rainfall and COVID's state x day lags are multi-attribute
  # auxiliaries, which only MaterializeMatrix evaluates (dense backend). Each
  # report is written to a file before its headline is gated.
  "$BUILD_DIR/bench/table_fist_study" > "$BUILD_DIR/table_fist_study.out"
  grep -F 'Resolved 20 / 22 complaints' "$BUILD_DIR/table_fist_study.out" >/dev/null
  "$BUILD_DIR/bench/fig13_covid" > "$BUILD_DIR/fig13_covid.out"
  grep -F 'Reptile 0.700 (21/30)' "$BUILD_DIR/fig13_covid.out" >/dev/null
  echo "--- accuracy benches passed"
else
  echo "--- observability bench SKIPPED: REPTILE_BUILD_BENCHMARKS is OFF in $BUILD_DIR"
  echo "--- accuracy benches SKIPPED: REPTILE_BUILD_BENCHMARKS is OFF in $BUILD_DIR"
fi

if [[ "${REPTILE_SKIP_SMOKE:-0}" != "1" ]]; then
  echo "--- server smoke: reptile_serve --demo on an ephemeral port"
  start_server "server" --http-threads 2
  # No `grep -q` downstream of curl: -q exits on first match, and under
  # pipefail a still-writing curl then dies with EPIPE (exit 23). Plain grep
  # reads to EOF, and >/dev/null keeps the gate silent.
  curl -fsS "http://127.0.0.1:$PORT/healthz" | grep '"status":"ok"' >/dev/null
  # /metricsz carries the front end's transport counters.
  curl -fsS "http://127.0.0.1:$PORT/metricsz" \
    | grep -E '^reptile_transport_requests_dispatched [0-9]+$' >/dev/null
  # The Prometheus endpoint serves the request-latency histogram, and a
  # client-supplied X-Request-Id is echoed back on the response.
  curl -fsS "http://127.0.0.1:$PORT/metricsz" \
    | grep 'reptile_http_request_duration_seconds_bucket' >/dev/null
  curl -fsS -D - -o /dev/null -H 'X-Request-Id: smoke-trace-1' \
      "http://127.0.0.1:$PORT/healthz" | grep -i '^x-request-id: smoke-trace-1' >/dev/null
  curl -fsS -X POST "http://127.0.0.1:$PORT/v1/recommend" \
      -d '{"dataset":"demo","complaint":{"aggregate":"std","measure":"severity","where":[{"column":"year","value":"y3"}]}}' \
    | grep '"best_index"' >/dev/null
  # Unknown datasets must map to HTTP 404 through the Status contract.
  [[ "$(curl -s -o /dev/null -w '%{http_code}' -X POST \
        "http://127.0.0.1:$PORT/v1/recommend" -d '{"dataset":"nope","complaint":{"aggregate":"count"}}')" == "404" ]]

  echo "--- server smoke: full dataset/session lifecycle"
  # Upload a CSV inline into the registry (and pre-commit its time hierarchy).
  UPLOAD='{"name":"up","csv":"d,y,m\nd0,y0,1\nd0,y0,2\nd0,y1,3\nd0,y1,4\nd1,y0,5\nd1,y0,3\nd1,y1,2\nd1,y1,6\nd2,y0,4\nd2,y0,2\nd2,y1,5\nd2,y1,1\n","dimensions":["d","y"],"measures":["m"],"hierarchies":[{"name":"geo","attributes":["d"]},{"name":"time","attributes":["y"]}],"commits":["time"]}'
  curl -fsS -X POST "http://127.0.0.1:$PORT/v1/datasets" -d "$UPLOAD" | grep '"dataset":"up"' >/dev/null
  # Create a per-client session restoring the committed drill state.
  SID="$(curl -fsS -X POST "http://127.0.0.1:$PORT/v1/sessions" \
      -d '{"dataset":"up","committed":{"time":1}}' \
    | sed -n 's/.*"session":"\([^"]*\)".*/\1/p')"
  [[ -n "$SID" ]] || { echo "session create returned no id"; exit 1; }
  # Recommend and commit through the session id.
  curl -fsS -X POST "http://127.0.0.1:$PORT/v1/recommend" \
      -d '{"session":"'"$SID"'","complaint":{"aggregate":"mean","measure":"m","where":[{"column":"y","value":"y0"}]}}' \
    | grep '"best_index"' >/dev/null
  curl -fsS -X POST "http://127.0.0.1:$PORT/v1/commit" \
      -d '{"session":"'"$SID"'","hierarchy":"geo"}' | grep '"depth":1' >/dev/null
  # Snapshot shows the committed drill state; delete ends the session.
  curl -fsS "http://127.0.0.1:$PORT/v1/sessions/$SID" | grep '"geo":1' >/dev/null
  curl -fsS -X DELETE "http://127.0.0.1:$PORT/v1/sessions/$SID" | grep '"deleted"' >/dev/null
  [[ "$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT/v1/sessions/$SID")" == "404" ]]

  echo "--- server smoke: append lifecycle (pin v1, append v2, both answer, delete)"
  # Pin a session to version 1 BEFORE the append so the ancestor stays live.
  PIN_SID="$(curl -fsS -X POST "http://127.0.0.1:$PORT/v1/sessions" \
      -d '{"dataset":"up@v1","committed":{"time":1}}' \
    | sed -n 's/.*"session":"\([^"]*\)".*/\1/p')"
  [[ -n "$PIN_SID" ]] || { echo "pinned session create returned no id"; exit 1; }
  # Inline-JSON append: one new district row becomes version 2 of the chain.
  curl -fsS -X POST "http://127.0.0.1:$PORT/v1/datasets/up/rows" \
      -d '{"csv":"d,y,m\nd3,y0,7\n"}' | grep '"dataset_version":2' >/dev/null
  # Both versions answer: the head recommend reads v2, the pinned session
  # stays on v1 — the X-Dataset-Version header names the version each used.
  curl -fsS -D - -X POST "http://127.0.0.1:$PORT/v1/recommend" \
      -d '{"dataset":"up","complaint":{"aggregate":"mean","measure":"m","where":[{"column":"y","value":"y0"}]}}' \
    | grep -i '^x-dataset-version: 2' >/dev/null
  curl -fsS -D - -X POST "http://127.0.0.1:$PORT/v1/recommend" \
      -d '{"session":"'"$PIN_SID"'","complaint":{"aggregate":"mean","measure":"m","where":[{"column":"y","value":"y0"}]}}' \
    | grep -i '^x-dataset-version: 1' >/dev/null
  # /healthz tracks the chain: head 2 with both versions live while pinned.
  curl -fsS "http://127.0.0.1:$PORT/healthz" \
    | grep '"dataset":"up","head":2,"live":\[1,2\]' >/dev/null
  # Schema-changing appends are 400s naming the exact offending column.
  [[ "$(curl -s -o /dev/null -w '%{http_code}' -X POST \
        "http://127.0.0.1:$PORT/v1/datasets/up/rows" \
        -d '{"csv":"d,y,m,extra\nd0,y0,1,2\n"}')" == "400" ]]
  curl -s -X POST "http://127.0.0.1:$PORT/v1/datasets/up/rows" \
      -d '{"csv":"d,y,m,extra\nd0,y0,1,2\n"}' \
    | grep "unknown column 'extra'" >/dev/null
  # Unpin, append again: the GC retires v1 AND v2 (nothing pins them now),
  # and the retirements surface on /healthz and /metricsz.
  curl -fsS -X DELETE "http://127.0.0.1:$PORT/v1/sessions/$PIN_SID" | grep '"deleted"' >/dev/null
  curl -fsS -X POST "http://127.0.0.1:$PORT/v1/datasets/up/rows" \
      -d '{"csv":"d,y,m\nd3,y1,8\n"}' | grep '"dataset_version":3' >/dev/null
  curl -fsS "http://127.0.0.1:$PORT/healthz" \
    | grep '"dataset":"up","head":3,"live":\[3\]' >/dev/null
  curl -fsS "http://127.0.0.1:$PORT/metricsz" | grep -E '^reptile_versions_gc_total 2$' >/dev/null
  curl -fsS "http://127.0.0.1:$PORT/metricsz" \
    | grep -E 'reptile_dataset_head_version\{dataset="up"\} 3' >/dev/null
  curl -fsS "http://127.0.0.1:$PORT/metricsz" \
    | grep -E 'reptile_versions_gc_total [1-9]' >/dev/null
  curl -fsS "http://127.0.0.1:$PORT/metricsz" \
    | grep -E 'reptile_cache_invalidations_total [1-9]' >/dev/null
  # DELETE drops the WHOLE chain: head and pinned spellings both 404 after.
  curl -fsS -X DELETE "http://127.0.0.1:$PORT/v1/datasets/up" | grep '"deleted"' >/dev/null
  [[ "$(curl -s -o /dev/null -w '%{http_code}' -X POST \
        "http://127.0.0.1:$PORT/v1/recommend" \
        -d '{"dataset":"up","complaint":{"aggregate":"count"}}')" == "404" ]]
  [[ "$(curl -s -o /dev/null -w '%{http_code}' -X POST \
        "http://127.0.0.1:$PORT/v1/recommend" \
        -d '{"dataset":"up@v3","complaint":{"aggregate":"count"}}')" == "404" ]]

  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"   # exits 0 on a clean shutdown; set -e fails otherwise
  trap - EXIT
  echo "--- server smoke passed"

  echo "--- server smoke: a junk numeric flag value or a removed flag exits 2 with the usage text"
  # A junk value must not be read as 0, which several flags define as
  # "unlimited". --stream-threshold and --high-water-bytes tuned chunked
  # response streaming, which the server no longer has: a script that still
  # passes them must fail at startup like any unknown flag. The timeout
  # catches a server that started anyway (exit 124, not 2).
  for BAD in "--max-body-bytes abc" "--rate-limit-rps xyz" \
             "--stream-threshold 1" "--high-water-bytes 1"; do
    RC=0
    # shellcheck disable=SC2086
    timeout 10 "$BUILD_DIR/reptile_serve" --demo --port 0 $BAD \
        >/dev/null 2>"$BUILD_DIR/bad_flag.err" || RC=$?
    [[ "$RC" == "2" ]] || { echo "FAIL: reptile_serve $BAD exited $RC, want 2" >&2; exit 1; }
    grep '^usage:' "$BUILD_DIR/bad_flag.err" >/dev/null
  done

  echo "--- auth + streamed-upload smoke: reptile_serve --auth-token"
  start_server "auth server" --http-threads 2 --auth-token smoke-tok
  # /healthz and /metricsz are auth-exempt; /metricsz surfaces the transport
  # counters.
  curl -fsS "http://127.0.0.1:$PORT/healthz" | grep '"status":"ok"' >/dev/null
  curl -fsS "http://127.0.0.1:$PORT/metricsz" \
    | grep -E '^reptile_transport_open_connections [0-9]+$' >/dev/null
  # Mutating routes require the bearer token: 401 without, 201 with — and the
  # with-token path is a text/csv body streamed straight into the parser.
  [[ "$(curl -s -o /dev/null -w '%{http_code}' -X POST \
        "http://127.0.0.1:$PORT/v1/datasets?name=s&dimensions=d,y&measures=m" \
        -H 'Content-Type: text/csv' --data-binary $'d,y,m\nd0,y0,1\n')" == "401" ]]
  [[ "$(curl -s -o /dev/null -w '%{http_code}' -X POST \
        -H 'Authorization: Bearer smoke-tok' -H 'Content-Type: text/csv' \
        --data-binary $'d,y,m\nd0,y0,1\nd0,y1,2\nd1,y0,3\nd1,y1,4\n' \
        "http://127.0.0.1:$PORT/v1/datasets?name=s&dimensions=d,y&measures=m&hierarchy=geo:d&hierarchy=time:y&commits=time")" == "201" ]]
  # Reads stay open without a token; the streamed dataset is queryable.
  curl -fsS -X POST "http://127.0.0.1:$PORT/v1/recommend" \
      -d '{"dataset":"s","complaint":{"aggregate":"mean","measure":"m","where":[{"column":"y","value":"y0"}]}}' \
    | grep '"best_index"' >/dev/null
  # /metricsz re-exports the transport counters as gauges.
  curl -fsS "http://127.0.0.1:$PORT/metricsz" \
    | grep 'reptile_transport_requests_dispatched' >/dev/null

  echo "--- auth + streamed-upload smoke: streamed append lifecycle"
  # Pin a session to version 1, then append a raw text/csv body streamed
  # straight into the parser. Appends are mutations: 401 without the token.
  RPIN="$(curl -fsS -X POST -H 'Authorization: Bearer smoke-tok' \
      "http://127.0.0.1:$PORT/v1/sessions" -d '{"dataset":"s","committed":{"time":1}}' \
    | sed -n 's/.*"session":"\([^"]*\)".*/\1/p')"
  [[ -n "$RPIN" ]] || { echo "pinned session create returned no id"; exit 1; }
  [[ "$(curl -s -o /dev/null -w '%{http_code}' -X POST \
        -H 'Content-Type: text/csv' --data-binary $'d,y,m\nd2,y0,9\n' \
        "http://127.0.0.1:$PORT/v1/datasets/s/rows")" == "401" ]]
  [[ "$(curl -s -o /dev/null -w '%{http_code}' -X POST \
        -H 'Authorization: Bearer smoke-tok' -H 'Content-Type: text/csv' \
        --data-binary $'d,y,m\nd2,y0,9\n' \
        "http://127.0.0.1:$PORT/v1/datasets/s/rows")" == "201" ]]
  # Both versions answer here too: pinned session on v1, head on v2.
  curl -fsS -D - -X POST "http://127.0.0.1:$PORT/v1/recommend" \
      -d '{"session":"'"$RPIN"'","complaint":{"aggregate":"mean","measure":"m","where":[{"column":"y","value":"y0"}]}}' \
    | grep -i '^x-dataset-version: 1' >/dev/null
  curl -fsS -D - -X POST "http://127.0.0.1:$PORT/v1/recommend" \
      -d '{"dataset":"s","complaint":{"aggregate":"mean","measure":"m","where":[{"column":"y","value":"y0"}]}}' \
    | grep -i '^x-dataset-version: 2' >/dev/null
  curl -fsS "http://127.0.0.1:$PORT/healthz" \
    | grep '"dataset":"s","head":2,"live":\[1,2\]' >/dev/null
  # DELETE drops the chain and every session over it, pinned ones included.
  curl -fsS -X DELETE -H 'Authorization: Bearer smoke-tok' \
      "http://127.0.0.1:$PORT/v1/datasets/s" | grep '"deleted"' >/dev/null
  [[ "$(curl -s -o /dev/null -w '%{http_code}' "http://127.0.0.1:$PORT/v1/sessions/$RPIN")" == "404" ]]
  [[ "$(curl -s -o /dev/null -w '%{http_code}' -X POST \
        "http://127.0.0.1:$PORT/v1/recommend" \
        -d '{"dataset":"s@v2","complaint":{"aggregate":"count"}}')" == "404" ]]
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
  trap - EXIT
  echo "--- auth + streamed-upload smoke passed"

  echo "--- loadgen: schedule determinism (same seed => identical bytes)"
  # The schedule is a pure function of (scenario, seed): two dump runs must
  # be byte-identical, and a different seed must produce different bytes.
  "$BUILD_DIR/reptile_loadgen" --scenario both --seed 42 --dump-schedule "$BUILD_DIR/sched_a"
  "$BUILD_DIR/reptile_loadgen" --scenario both --seed 42 --dump-schedule "$BUILD_DIR/sched_b"
  cmp "$BUILD_DIR/sched_a.steady" "$BUILD_DIR/sched_b.steady"
  cmp "$BUILD_DIR/sched_a.burst" "$BUILD_DIR/sched_b.burst"
  "$BUILD_DIR/reptile_loadgen" --scenario steady --seed 43 --dump-schedule "$BUILD_DIR/sched_c"
  if cmp -s "$BUILD_DIR/sched_a.steady" "$BUILD_DIR/sched_c"; then
    echo "FAIL: different seeds produced identical schedules" >&2
    exit 1
  fi

  echo "--- loadgen: steady open-loop replay, every response byte-validated"
  # Unthrottled server: the steady scenario must complete with zero failures,
  # zero mismatches, zero timeouts — loadgen itself exits non-zero otherwise,
  # and the greps double-check the recorded report. Structural gates only:
  # never absolute timings (CI machines are slow and shared).
  start_server "steady server" --http-threads 4
  "$BUILD_DIR/reptile_loadgen" --port "$PORT" --scenario steady --seed 42 \
    --out "$BUILD_DIR/BENCH_workload_steady.json"
  require_bench_json "$BUILD_DIR/BENCH_workload_steady.json"
  grep -q '"scenario":"steady"' "$BUILD_DIR/BENCH_workload_steady.json"
  grep -q '"mismatches":0' "$BUILD_DIR/BENCH_workload_steady.json"
  grep -q '"failures":0' "$BUILD_DIR/BENCH_workload_steady.json"
  grep -q '"timeouts":0' "$BUILD_DIR/BENCH_workload_steady.json"
  grep -q '"p50_ms":' "$BUILD_DIR/BENCH_workload_steady.json"
  grep -q '"p999_ms":' "$BUILD_DIR/BENCH_workload_steady.json"

  echo "--- loadgen: churn appends mid-run with pinned analysts, byte-validated"
  # Same unthrottled server (per-scenario dataset names never collide): a
  # feeder appends v2 and v3 mid-run while analysts stay pinned to @v1, and
  # every response — pinned and head alike — must match the oracle's bytes.
  "$BUILD_DIR/reptile_loadgen" --port "$PORT" --scenario churn --seed 42 \
    --out "$BUILD_DIR/BENCH_workload_churn.json"
  require_bench_json "$BUILD_DIR/BENCH_workload_churn.json"
  grep -q '"scenario":"churn"' "$BUILD_DIR/BENCH_workload_churn.json"
  grep -q '"mismatches":0' "$BUILD_DIR/BENCH_workload_churn.json"
  grep -q '"failures":0' "$BUILD_DIR/BENCH_workload_churn.json"
  grep -q '"timeouts":0' "$BUILD_DIR/BENCH_workload_churn.json"
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
  trap - EXIT

  echo "--- loadgen: burst overload must provoke 429s AND 503 sheds"
  # One throttled worker behind a tight token bucket and a 1ms queue
  # deadline: the MMPP burst has to light up both pushback paths
  # (loadgen --expect-overload exits non-zero unless both counters moved).
  start_server "burst server" --http-threads 1 \
      --rate-limit-rps 150 --rate-limit-burst 50 --queue-deadline-ms 1
  "$BUILD_DIR/reptile_loadgen" --port "$PORT" --scenario burst --seed 42 \
    --workers 24 --expect-overload --out "$BUILD_DIR/BENCH_workload_burst.json"
  require_bench_json "$BUILD_DIR/BENCH_workload_burst.json"
  grep -q '"scenario":"burst"' "$BUILD_DIR/BENCH_workload_burst.json"
  grep -q '"mismatches":0' "$BUILD_DIR/BENCH_workload_burst.json"
  if grep -q '"rate_limited_429":0,' "$BUILD_DIR/BENCH_workload_burst.json"; then
    echo "FAIL: burst run never hit the rate limiter" >&2
    exit 1
  fi
  if grep -q '"shed_503":0,' "$BUILD_DIR/BENCH_workload_burst.json"; then
    echo "FAIL: burst run never shed queued work" >&2
    exit 1
  fi
  # The same counters must be visible on the server's own /metricsz, which
  # the queue deadline never sheds. Here-strings, not `echo | grep -q`: grep
  # -q exits at its first match, and under pipefail an echo still writing
  # the rest then dies with SIGPIPE.
  METRICS="$(curl -fsS "http://127.0.0.1:$PORT/metricsz")"
  grep -Eq 'reptile_transport_requests_rate_limited [1-9]' <<< "$METRICS"
  grep -Eq 'reptile_transport_requests_shed [1-9]' <<< "$METRICS"
  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
  trap - EXIT

  # The canonical two-scenario report: splice the per-run scenario objects
  # into one BENCH_workload.json (each report is a single JSON line).
  STEADY_SCEN="$(sed -e 's/^.*"scenarios":\[//' -e 's/\]}$//' "$BUILD_DIR/BENCH_workload_steady.json")"
  BURST_SCEN="$(sed -e 's/^.*"scenarios":\[//' -e 's/\]}$//' "$BUILD_DIR/BENCH_workload_burst.json")"
  printf '{"bench":"workload","seed":42,"scenarios":[%s,%s]}\n' \
    "$STEADY_SCEN" "$BURST_SCEN" > "$BUILD_DIR/BENCH_workload.json"
  require_bench_json "$BUILD_DIR/BENCH_workload.json"
  grep -q '"scenario":"steady"' "$BUILD_DIR/BENCH_workload.json"
  grep -q '"scenario":"burst"' "$BUILD_DIR/BENCH_workload.json"
  echo "--- loadgen stage passed"
fi

if [[ "${REPTILE_SKIP_ASAN:-0}" != "1" ]]; then
  # ASan+UBSan over the whole suite: the byte-level codecs and parsers
  # (snapshot, CSV, JSON, HTTP), the model kernels that run on raw offsets
  # into flat buffers, and every server and net test. The preset also
  # defines _GLIBCXX_ASSERTIONS, so libstdc++'s precondition checks run over
  # the same tests. Benchmarks and examples add nothing here; skip them.
  cmake -B "$ASAN_BUILD_DIR" -S . -DREPTILE_ASAN=ON \
    -DREPTILE_BUILD_BENCHMARKS=OFF -DREPTILE_BUILD_EXAMPLES=OFF "$@"
  cmake --build "$ASAN_BUILD_DIR" -j "$(nproc)"
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir "$ASAN_BUILD_DIR" --output-on-failure -j "$(nproc)"
fi

if [[ "${REPTILE_SKIP_TSAN:-0}" != "1" ]]; then
  # Benchmarks and examples add nothing to race coverage; skip them for speed.
  cmake -B "$TSAN_BUILD_DIR" -S . -DREPTILE_TSAN=ON \
    -DREPTILE_BUILD_BENCHMARKS=OFF -DREPTILE_BUILD_EXAMPLES=OFF "$@"
  cmake --build "$TSAN_BUILD_DIR" -j "$(nproc)"
  # halt_on_error surfaces the first race as a test failure instead of a log
  # line; second_deadlock_stack improves lock-order reports.
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure -j "$(nproc)"
fi
