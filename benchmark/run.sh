#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in one process; the last line of standard output is
#       the JSON result (what the acceptance driver calls)
#   benchmark/run.sh [--seed N] [--seconds S] [--traced] [--record]
#       every workload, each in its own child process, one after another;
#       prints every metric by name with its unit
#   benchmark/run.sh --repeat-check [--runs N]
#       two sets of N (default 10) runs per workload on N seeds; compares
#       spreads and medians with the bounds
#   benchmark/run.sh --manifest
#       prints BENCHMARK.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Build output goes to standard error: standard output carries results only.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" >&2
export UBURST_BENCH_OUT="${UBURST_BENCH_OUT:-$here/out}"
# Keep freed memory in the process (glibc): without this every repetition
# returns its hundreds of MB to the kernel and faults them in again, and on
# the shared reference host the cost of those faults swings by tens of
# percent with the neighbours' load. Same settings on every commit.
export MALLOC_TRIM_THRESHOLD_=4000000000 MALLOC_MMAP_THRESHOLD_=4000000000 \
    MALLOC_TOP_PAD_=268435456
exec "$target/release/uburst-benchmark" "$@"
