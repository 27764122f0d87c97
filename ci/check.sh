#!/usr/bin/env bash
# Hermetic CI gate: everything runs --offline/--locked so the check is
# reproducible in a network-isolated environment. Any dependency that would
# need crates.io must be vendored under shims/ (see DESIGN.md, "Offline build
# policy").
#
# Structure: every gate is a function registered in EXPECTED_GATES and run
# through run_gate, which times it and records PASS/FAIL. The summary at the
# end prints per-gate timing, and the script exits non-zero if any gate
# failed OR any expected gate never ran — a silently-disabled (skipped) gate
# is itself a failure, so gates can't rot.
set -uo pipefail

cd "$(dirname "$0")/.."

# Gate registry: every name listed here MUST run, or the suite fails.
EXPECTED_GATES="fmt clippy doc build-release tier1-tests workspace-tests obs-layer \
mvcc-stress e2ebench-build e2ebench-smoke e2ebench-counts"

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

# rustdoc must be warning-free: a broken or ambiguous intra-doc link, or a
# public doc comment linking to an item its crate does not export, fails.
gate_doc() {
  run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked
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
# mutation workload) and the golden EXPLAIN snapshots, the gate's cache
# on/off replay differential, the one-pinned-version properties
# (tests/privilege_agreement.rs: tool-side and engine-side privilege
# verdicts agree under GRANT/REVOKE churn; tests/schema_churn.rs: context
# tools survive CREATE/DROP churn), the savepoint and engine proptests, the
# crashlab differentials (single-session kill points plus the interleaved
# concurrent-commit scenario), and the wire suites over real sockets:
# loopback failure modes, the admin plane, cross-layer trace integrity,
# the served demo (tests/serve_smoke.rs: a proxy call and its JSONL trace,
# counter monotonicity between scrapes, /slow/<trace-id>, /statements and
# /queries) and agent-traffic moderation (tests/gate_moderation.rs: a
# budgeted runaway capped and denied beside untouched steady tenants, the
# explorer's context-cache hit rate, eight concurrently open transactions).
gate_workspace_tests() {
  run cargo test -q --workspace --offline --locked
}

# Observability layer: the obs kernel builds and tests standalone, and the
# end-to-end example must produce a non-empty, parseable JSONL trace
# (task → llm:call → tool:{name} → sql:execute span chain + a metrics line
# whose series keep their labels).
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
  # The export carries labels: a tool call is a tool.calls{outcome,tool} series.
  grep '"type":"metrics"' "$trace_file" \
    | grep -q '"labels":{"outcome":"[a-z-]*","tool":"[a-z_]*"},"name":"tool.calls"' \
    || { echo "FAIL: JSONL metrics record has no labeled tool.calls series"; return 1; }
  echo "==> JSONL trace OK ($(wc -l < "$trace_file") lines)"
}

# MVCC concurrency stress: deterministic-seed writer threads hammering
# shared counters, asserting lost-update freedom and fingerprint equality
# vs serial replay (crates/minidb/tests/mvcc_stress.rs). The assertions are
# interleaving-independent, so this gate cannot flake.
gate_mvcc_stress() {
  run cargo test -q --offline --locked -p minidb --test mvcc_stress
}

# The layered benchmark is its own cargo package (own workspace and lock
# file, path-deps on ../crates/*), so the workspace gates above never
# compile it. Build it and run its unit tests here, so an API change that
# breaks it fails CI instead of the next benchmark run.
gate_e2ebench_build() {
  run bash e2ebench/run.sh test
}

# The benchmark as a correctness gate: one second's worth of the two
# workloads that carry the most data over the wire, plus durable_write, the
# one that drives commits beside a concurrent reader through the wire's
# call path. Every reply is checked against the oracle computed during
# set-up (row counts, the trained model's digest, typed denials; for
# durable_write, reopening the directory and finding every acknowledged
# commit), and a wrong one makes the run exit non-zero; no timing is
# asserted. A wire-level slip in the data path — a frame cut short, a row
# lost in a proxy hand-off, a denial that decodes as something else, a
# commit acknowledged and lost — fails here rather than in the next
# benchmark run.
gate_e2ebench_smoke() {
  local workload
  for workload in agent_mix bulk_transfer durable_write; do
    run bash e2ebench/run.sh --workload "$workload" --seed 7 --seconds 1 --trace 0 \
      || return 1
  done
}

# The paper's F4 number and the span count per call as count gates (each
# repeats exactly for a seed and run length). One traced second of
# bulk_transfer at seed 42 must move exactly 1 696 605 bytes tool-to-tool
# through proxy units (`core.proxy_bytes_moved`) and record 6.6667 spans
# per call; one traced second of agent_mix at seed 42 must record 3.2806
# spans per call; neither may fail a call. A change that sizes a hand-off
# twice, or not at all, or adds a span to or loses one from the call path,
# fails here. About 25 s on 2 vCPUs once the benchmark is built.
gate_e2ebench_counts() {
  local out=target/e2ebench-counts.txt
  run bash e2ebench/run.sh --workload bulk_transfer --seed 42 --seconds 1 --trace 1 \
    | tee "$out" || return 1
  grep -Eq '^core\.proxy_bytes_moved +1696605(\.0+)? count$' "$out" \
    || { echo "FAIL: core.proxy_bytes_moved is not 1696605"; return 1; }
  grep -Eq '^obs\.spans_per_call +6\.6667 ratio$' "$out" \
    || { echo "FAIL: bulk_transfer obs.spans_per_call is not 6.6667"; return 1; }
  grep -q '^failed_frac 0 ' "$out" \
    || { echo "FAIL: bulk_transfer failed_frac is not 0"; return 1; }
  run bash e2ebench/run.sh --workload agent_mix --seed 42 --seconds 1 --trace 1 \
    | tee "$out" || return 1
  grep -Eq '^obs\.spans_per_call +3\.2806 ratio$' "$out" \
    || { echo "FAIL: agent_mix obs.spans_per_call is not 3.2806"; return 1; }
  grep -q '^failed_frac 0 ' "$out" \
    || { echo "FAIL: agent_mix failed_frac is not 0"; return 1; }
  echo "==> counts OK"
}

# ------------------------------------------------------------- execution --

run_gate fmt             gate_fmt
run_gate clippy          gate_clippy
run_gate doc             gate_doc
run_gate build-release   gate_build_release
run_gate tier1-tests     gate_tier1_tests
run_gate workspace-tests gate_workspace_tests
run_gate obs-layer       gate_obs_layer
run_gate mvcc-stress     gate_mvcc_stress
run_gate e2ebench-build  gate_e2ebench_build
run_gate e2ebench-smoke  gate_e2ebench_smoke
run_gate e2ebench-counts gate_e2ebench_counts

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
