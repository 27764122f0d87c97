#!/usr/bin/env bash
# Build the benchmark from source and run it. Start it from the repository
# root (or anywhere: it moves there itself).
#
#   e2ebench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in one process; prints every metric by name with its
#       unit and, as the last line, the result object (the driver's form)
#   e2ebench/run.sh [--seed N] [--seconds S] [--runs R] [--trace] [RESULTS.json]
#       every workload, a process per run, end to end (then traced with
#       --trace); with --runs R each workload runs R times and the results
#       hold the median. Writes e2ebench/out/results.json or RESULTS.json
#   e2ebench/run.sh compare BASE.json NEW.json
#       one row per (workload, metric); non-zero exit on any `worse`
#   e2ebench/run.sh test
#       the benchmark's own unit tests
set -euo pipefail

cd "$(dirname "$0")/.."

# Without CARGO_TARGET_DIR the build lands in e2ebench/target (ignored).
target="${CARGO_TARGET_DIR:-e2ebench/target}"
manifest=e2ebench/Cargo.toml

if [[ "${1:-}" == "test" ]]; then
  exec cargo test --release --offline --quiet --manifest-path "$manifest"
fi

# Build output goes to stderr so that stdout is the benchmark's alone.
cargo build --release --offline --quiet --manifest-path "$manifest" >&2

case "${1:-}" in
  compare | manifest) exec "$target/release/e2ebench" "$@" ;;
esac
for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$target/release/e2ebench" run "$@"
  fi
done
exec "$target/release/e2ebench" all "$@"
