#!/usr/bin/env bash
# The repo benchmark. Builds the harness (a cargo package of its own,
# offline) and runs it; see benchmark/README.md.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, one fresh process; the last line of standard
#       output is the JSON result (this is the BENCHMARK.json command)
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
#       every workload in turn, each in a fresh process
#   benchmark/run.sh compare A B
#       judge result set B against result set A with the bounds of
#       BENCHMARK.json; exit 1 on a breach
#
# Run from the root of a checkout. Results accumulate in benchmark/out/
# (or --out DIR): results-<workload>.json, trace-<workload>.json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=(hot-large hot-small cold-sync cold-async)

for var in SPMV_THREADS SPMV_LANES; do
    if [[ -n "${!var+set}" ]]; then
        echo "run.sh: $var is set; the benchmark measures the host's own pool width and lanes — unset it" >&2
        exit 2
    fi
done
if [[ "$(nproc)" -lt 2 ]]; then
    echo "run.sh: 1 hardware thread — cold-async's client and its pool worker will share it; recorded in the host facts" >&2
fi

# The driver sets CARGO_TARGET_DIR; on a developer's machine the build
# lands in benchmark/target. Build output goes to standard error so the
# result stays the last line of standard output.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/spmv-benchmark"

if [[ "${1-}" == compare ]]; then
    exec "$bin" "$@"
fi

has_workload=0
for arg in "$@"; do
    [[ "$arg" == --workload ]] && has_workload=1
done
if [[ "$has_workload" == 1 ]]; then
    exec "$bin" "$@"
fi
for w in "${workloads[@]}"; do
    "$bin" --workload "$w" "$@"
done
