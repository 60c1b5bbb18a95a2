#!/usr/bin/env bash
# Builds the benchmark and runs it. From the repository root:
#
#   bench/run.sh                         every workload, one child process each
#   bench/run.sh --traced --out r.json   also the traced runs; readings as JSON
#   bench/run.sh --workload store-bulk   one workload (suite mode)
#   bench/run.sh --compare A.json B.json PASS / UNRESOLVED / FAIL per metric
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                        one run in this process; the last
#                                        line is the result object
#
# Build outputs, store logs and trace files go to $CARGO_TARGET_DIR if it is
# set and to target/bench otherwise; nothing else is written.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/bench}"

# The build is quiet unless it fails, so the last line of stdout stays the
# benchmark's own.
if ! build_log="$(cargo build --release --offline --manifest-path bench/Cargo.toml \
    --target-dir "$CARGO_TARGET_DIR" 2>&1)"; then
    echo "$build_log" >&2
    exit 1
fi

exec "$CARGO_TARGET_DIR/release/scoop-perf" "$@"
