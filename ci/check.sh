#!/usr/bin/env bash
# Hermetic CI gate: everything runs --offline/--locked so the check is
# reproducible in a network-isolated environment. Any dependency that would
# need crates.io must be vendored under shims/ or feature-gated behind the
# non-default `external-deps` feature (see DESIGN.md, "Offline build policy").
#
# Structure: every gate is a function registered in EXPECTED_GATES and run
# through run_gate, which times it and records PASS/FAIL. The summary at the
# end prints per-gate timing, and the script exits non-zero if any gate
# failed OR any expected gate never ran — a silently-disabled (skipped) gate
# is itself a failure, so gates can't rot.
set -uo pipefail

cd "$(dirname "$0")/.."

# Gate registry: every name listed here MUST run, or the suite fails.
EXPECTED_GATES="fmt clippy build-release tier1-tests workspace-tests obs-layer \
wire-smoke telemetry-smoke trace-smoke recovery-smoke mvcc-stress mvcc-bench \
gate-smoke planner-smoke e2ebench-build e2ebench-smoke"

GATES_RUN=""
GATES_FAILED=""
TIMING_SUMMARY=""

run() {
  echo "==> $*"
  "$@"
}

run_gate() {
  local name="$1"
  local fn="$2"
  local start end secs status
  echo
  echo "=== gate: $name ==="
  start=$(date +%s)
  if "$fn"; then
    status=PASS
  else
    status=FAIL
    GATES_FAILED="$GATES_FAILED $name"
  fi
  end=$(date +%s)
  secs=$((end - start))
  GATES_RUN="$GATES_RUN $name"
  TIMING_SUMMARY="$TIMING_SUMMARY$(printf '  %-16s %4ss  %s' "$name" "$secs" "$status")\n"
  echo "=== gate: $name $status (${secs}s) ==="
}

# ---------------------------------------------------------------- gates --

# Style and lints first: cheap, and failures are the easiest to fix.
gate_fmt() {
  run cargo fmt --all -- --check
}

gate_clippy() {
  run cargo clippy --workspace --all-targets --offline --locked -- -D warnings
}

# Tier-1 verify (ROADMAP.md): release build + umbrella tests.
gate_build_release() {
  run cargo build --release --offline --locked
}

gate_tier1_tests() {
  run cargo test -q --offline --locked
}

# Full workspace suite, including the planner-vs-reference differential
# (tests/planner_differential.rs: BIRD-Ext gold SQL plus the seeded
# mutation workload), the savepoint and engine proptests, and the crashlab
# differentials (single-session kill points plus the interleaved
# concurrent-commit scenario).
gate_workspace_tests() {
  run cargo test -q --workspace --offline --locked
}

# Observability layer: the obs kernel builds and tests standalone, and the
# end-to-end example must produce a non-empty, parseable JSONL trace
# (task → llm:call → tool:{name} → sql:execute span chain + metrics line).
gate_obs_layer() {
  run cargo build --offline --locked -p obs || return 1
  run cargo test -q --offline --locked -p obs || return 1
  local trace_file=target/obs-trace.jsonl
  rm -f "$trace_file"
  run cargo run -q --offline --locked --example observability "$trace_file" || return 1
  test -s "$trace_file" || { echo "FAIL: $trace_file is empty or missing"; return 1; }
  head -n 1 "$trace_file" | grep -q '^{.*"type":"span".*}$' \
    || { echo "FAIL: first JSONL line is not a span record"; return 1; }
  grep -q '"type":"metrics"' "$trace_file" \
    || { echo "FAIL: JSONL trace has no metrics record"; return 1; }
  echo "==> JSONL trace OK ($(wc -l < "$trace_file") lines)"
}

# Wire layer: crate builds and tests standalone, then the offline loopback
# smoke test — examples/serve --selftest binds an ephemeral port and drives
# a scripted session against it (schema fetch, a select, a denied write, a
# proxy call) and validates the emitted JSONL trace, printing one
# `selftest:` marker per step and exiting non-zero on any deviation.
gate_wire_smoke() {
  run cargo build --offline --locked -p wire || return 1
  run cargo test -q --offline --locked -p wire || return 1
  local wire_trace=target/wire-trace.jsonl
  rm -f "$wire_trace"
  local selftest_out
  selftest_out=$(cargo run -q --offline --locked --example serve -- --selftest "$wire_trace") || return 1
  echo "$selftest_out"
  local marker
  for marker in "schema ok" "select ok" "denied ok" "proxy ok" "trace ok" "all ok"; do
    echo "$selftest_out" | grep -q "selftest: $marker" \
      || { echo "FAIL: wire selftest missing marker '$marker'"; return 1; }
  done
  grep -q '"name":"wire:session"' "$wire_trace" \
    || { echo "FAIL: wire trace has no wire:session span"; return 1; }
  echo "==> wire loopback smoke OK"
}

# Live-telemetry smoke: examples/serve --selftest-telemetry binds a wire
# server plus the admin plane (the same code path as --admin-addr), runs a
# loadgen smoke, scrapes /metrics twice and asserts every counter series is
# monotonic, requires the tool-labeled counter / mvcc gauge / latency
# histogram series, captures a slow call in the flight recorder, verifies
# /readyz flips to 503 during drain while /healthz stays 200, and compares
# loadgen throughput with telemetry on vs off (enabled/disabled >= 0.9).
gate_telemetry_smoke() {
  local telemetry_out
  telemetry_out=$(cargo run -q --offline --locked --example serve -- --selftest-telemetry) || return 1
  echo "$telemetry_out"
  local marker
  for marker in "health ok" "metrics ok" "monotonic ok" "slow ok" \
                "readyz ok" "overhead ok" "all ok"; do
    echo "$telemetry_out" | grep -q "telemetry: $marker" \
      || { echo "FAIL: telemetry selftest missing marker '$marker'"; return 1; }
  done
  echo "==> telemetry smoke OK"
}

# Distributed-tracing smoke: examples/serve --selftest-tracing binds a
# gated wire server plus the admin plane and drives the tracing surface end
# to end — a client-supplied traceparent is echoed back and names the wire,
# gate, tool, and SQL spans of one call; a traced slow call is served back
# whole via /slow/<trace-id>; EXPLAIN ANALYZE per-node actual times are
# plausible (children within the root); a loadgen burst populates
# /statements with per-(user, normalized statement) aggregates (including
# plan-cache hits and a reader denial); /queries lists an in-flight call;
# and the traced plane stays within 10% of the disabled-telemetry loadgen
# throughput (profiling off — release build, so timings reflect production).
gate_trace_smoke() {
  local tracing_out
  tracing_out=$(cargo run -q --release --offline --locked --example serve -- --selftest-tracing) || return 1
  echo "$tracing_out"
  local marker
  for marker in "traceparent ok" "tail sampling ok" "explain ok" \
                "statements ok" "queries ok" "overhead ok" "all ok"; do
    echo "$tracing_out" | grep -q "tracing: $marker" \
      || { echo "FAIL: tracing selftest missing marker '$marker'"; return 1; }
  done
  echo "==> distributed-tracing smoke OK"
}

# Durability layer: commit work to a WAL-backed database, kill the engine
# in-process (no checkpoint, one transaction left uncommitted), reopen, and
# require zero lost commits plus a recovery:replay span in the trace. The
# torn-tail proptest and the benchkit crash differential already ran in the
# workspace suite above; this exercises the same path as a runnable binary.
gate_recovery_smoke() {
  local recovery_trace=target/recovery-trace.jsonl
  rm -f "$recovery_trace"
  local recovery_out
  recovery_out=$(cargo run -q --offline --locked --example serve -- --selftest-recovery "$recovery_trace") || return 1
  echo "$recovery_out"
  local marker
  for marker in "committed workload ok" "engine killed" "recovery ok" \
                "zero lost commits" "uncommitted txn discarded ok" "trace ok" "recovery all ok"; do
    echo "$recovery_out" | grep -q "$marker" \
      || { echo "FAIL: recovery selftest missing marker '$marker'"; return 1; }
  done
  grep -q '"name":"recovery:replay"' "$recovery_trace" \
    || { echo "FAIL: recovery trace has no recovery:replay span"; return 1; }
  grep -q '"name":"wal:append"' "$recovery_trace" \
    || { echo "FAIL: recovery trace has no wal:append span"; return 1; }
  echo "==> crash-recovery smoke OK"
}

# MVCC concurrency stress: deterministic-seed writer threads hammering
# shared counters, asserting lost-update freedom and fingerprint equality
# vs serial replay (crates/minidb/tests/mvcc_stress.rs). The assertions are
# interleaving-independent, so this gate cannot flake.
gate_mvcc_stress() {
  run cargo test -q --offline --locked -p minidb --test mvcc_stress
}

# MVCC scaling benchmark + regression gate: re-measure read-transaction
# throughput at 1/2/4/8 workers (ci/bench.sh, fixed seed) and fail if the
# 8-worker run is not better than 1.5× the 1-worker run. The committed
# baseline (BENCH_mvcc.json) shows ≥2× on an unloaded single-core box; the
# 1.5× gate leaves generous headroom for CI noise while still catching a
# return to lock-serialized execution (which measures ~1.0×).
gate_mvcc_bench() {
  local fresh=target/BENCH_mvcc.json
  bash ci/bench.sh "$fresh" 300 || return 1
  test -s BENCH_mvcc.json \
    || { echo "FAIL: committed baseline BENCH_mvcc.json missing"; return 1; }
  local scaling
  scaling=$(sed -n 's/.*"scaling_8v1": *\([0-9.]*\).*/\1/p' "$fresh")
  test -n "$scaling" || { echo "FAIL: no scaling_8v1 in $fresh"; return 1; }
  echo "==> measured scaling_8v1 = $scaling (gate: > 1.5)"
  awk -v s="$scaling" 'BEGIN { exit (s > 1.5) ? 0 : 1 }' \
    || { echo "FAIL: 8-worker throughput only ${scaling}x the 1-worker run (need > 1.5x)"; return 1; }
}

# Agent-traffic gate: the full-replay cache differential (caches on vs off
# must be byte-identical across every BIRD task and role, including denial
# messages), then the runnable gate benchmark (examples/serve --bench-gate)
# which re-measures the headline numbers and enforces the acceptance
# thresholds — ≥80% context-tool cache hit rate under the exploration
# profile, a runaway tenant capped by its budget (the binary fails itself
# if the cap slips or a steady tenant is starved), steady-tenant throughput
# parity, and steady-tenant p95 within 20% of the no-runaway baseline.
gate_gate_smoke() {
  run cargo test -q --offline --locked -p gate || return 1
  run cargo test -q --offline --locked --test gate_differential || return 1
  local fresh=target/BENCH_gate.json
  rm -f "$fresh"
  run cargo run -q --offline --locked --example serve -- --bench-gate "$fresh" || return 1
  test -s BENCH_gate.json \
    || { echo "FAIL: committed baseline BENCH_gate.json missing"; return 1; }
  local hit completion fairness p95
  hit=$(sed -n 's/.*"hit_rate": *\([0-9.]*\).*/\1/p' "$fresh")
  completion=$(sed -n 's/.*"completion_rate": *\([0-9.]*\).*/\1/p' "$fresh")
  fairness=$(sed -n 's/.*"fairness_ratio": *\([0-9.]*\).*/\1/p' "$fresh")
  p95=$(sed -n 's/.*"p95_ratio": *\([0-9.]*\).*/\1/p' "$fresh")
  test -n "$hit" && test -n "$completion" && test -n "$fairness" && test -n "$p95" \
    || { echo "FAIL: $fresh is missing headline metrics"; return 1; }
  echo "==> hit_rate=$hit completion_rate=$completion fairness_ratio=$fairness p95_ratio=$p95"
  awk -v v="$hit" 'BEGIN { exit (v >= 0.8) ? 0 : 1 }' \
    || { echo "FAIL: context cache hit rate $hit < 0.8"; return 1; }
  awk -v v="$completion" 'BEGIN { exit (v >= 0.75) ? 0 : 1 }' \
    || { echo "FAIL: task completion rate $completion < 0.75"; return 1; }
  awk -v v="$fairness" 'BEGIN { exit (v <= 1.2) ? 0 : 1 }' \
    || { echo "FAIL: steady-tenant throughput ratio $fairness > 1.2"; return 1; }
  awk -v v="$p95" 'BEGIN { exit (v <= 1.2) ? 0 : 1 }' \
    || { echo "FAIL: steady-tenant p95 ratio $p95 > 1.2 vs no-runaway baseline"; return 1; }
}

# Cost-based planner: golden EXPLAIN snapshots (any silent plan-shape
# change fails byte-exactly), the BIRD-Ext differential (every gold SELECT
# through the planner vs the sequential reference, across three statistics
# regimes), then the runnable planner benchmark (examples/serve
# --bench-planner, release profile — the nested-loop reference baseline is
# unusably slow in debug). The binary hard-fails itself unless the index
# probe wins after ANALYZE, the worst-first three-way join is reordered,
# and the LIMIT pushdown streams; the thresholds here re-check the emitted
# JSON so a silently-weakened binary can't pass.
gate_planner_smoke() {
  run cargo test -q --offline --locked -p minidb --test explain_golden || return 1
  run cargo test -q --offline --locked --test planner_differential || return 1
  local fresh=target/BENCH_planner.json
  rm -f "$fresh"
  run cargo run -q --release --offline --locked --example serve -- --bench-planner "$fresh" || return 1
  test -s BENCH_planner.json \
    || { echo "FAIL: committed baseline BENCH_planner.json missing"; return 1; }
  local shape
  for shape in probe_uses_index join_reordered topk_bounded limit_streams; do
    grep -q "\"$shape\": true" "$fresh" \
      || { echo "FAIL: planner bench reports $shape != true"; return 1; }
  done
  local limit_speedup
  limit_speedup=$(sed -n 's/.*"limit_speedup": *\([0-9.]*\).*/\1/p' "$fresh")
  test -n "$limit_speedup" || { echo "FAIL: no limit_speedup in $fresh"; return 1; }
  echo "==> limit_speedup=${limit_speedup}x (gate: >= 1.5)"
  awk -v v="$limit_speedup" 'BEGIN { exit (v >= 1.5) ? 0 : 1 }' \
    || { echo "FAIL: LIMIT pushdown only ${limit_speedup}x the unpushed plan (need >= 1.5x)"; return 1; }
}

# The layered benchmark is its own cargo package (own workspace and lock
# file, path-deps on ../crates/*), so the workspace gates above never
# compile it. Build it and run its unit tests here, so an API change that
# breaks it fails CI instead of the next benchmark run.
gate_e2ebench_build() {
  run bash e2ebench/run.sh test
}

# The benchmark as a correctness gate: one second's worth of the two
# workloads that carry the most data over the wire. Every reply is checked
# against the oracle computed during set-up (row counts, the trained model's
# digest, typed denials), and a wrong one makes the run exit non-zero; no
# timing is asserted. A wire-level slip in the data path — a frame cut
# short, a row lost in a proxy hand-off, a denial that decodes as something
# else — fails here rather than in the next benchmark run.
gate_e2ebench_smoke() {
  local workload
  for workload in agent_mix bulk_transfer; do
    run bash e2ebench/run.sh --workload "$workload" --seed 7 --seconds 1 --trace 0 \
      || return 1
  done
}

# ------------------------------------------------------------- execution --

run_gate fmt             gate_fmt
run_gate clippy          gate_clippy
run_gate build-release   gate_build_release
run_gate tier1-tests     gate_tier1_tests
run_gate workspace-tests gate_workspace_tests
run_gate obs-layer       gate_obs_layer
run_gate wire-smoke      gate_wire_smoke
run_gate telemetry-smoke gate_telemetry_smoke
run_gate trace-smoke     gate_trace_smoke
run_gate recovery-smoke  gate_recovery_smoke
run_gate mvcc-stress     gate_mvcc_stress
run_gate mvcc-bench      gate_mvcc_bench
run_gate gate-smoke      gate_gate_smoke
run_gate planner-smoke   gate_planner_smoke
run_gate e2ebench-build  gate_e2ebench_build
run_gate e2ebench-smoke  gate_e2ebench_smoke

# -------------------------------------------------------------- summary --

echo
echo "=== gate timing summary ==="
printf "%b" "$TIMING_SUMMARY"

skipped=""
for g in $EXPECTED_GATES; do
  case " $GATES_RUN " in
    *" $g "*) ;;
    *) skipped="$skipped $g" ;;
  esac
done

if [ -n "$skipped" ]; then
  echo "FAIL: expected gate(s) never ran:$skipped"
  exit 1
fi
if [ -n "$GATES_FAILED" ]; then
  echo "FAIL: gate(s) failed:$GATES_FAILED"
  exit 1
fi
echo "All checks passed."
