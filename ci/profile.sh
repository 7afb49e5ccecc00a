#!/usr/bin/env bash
# Profiles `repro` runs and prints where their CPU time goes: the top 30
# functions by exclusive and by inclusive CPU time. First it says how thin
# the profile is: the runs' total duration, the CPU they used (getrusage of
# this shell's children), the CPU gprofng captured and how many clock
# samples that is, plus the collector's own warnings. Below ~1000 samples a
# percentage in the tables rests on too few samples to cite; give a larger
# run count N, which collects N experiments of the same id and reads them
# together (`gprofng display text ... a.er b.er ...`).
#
#   bash ci/profile.sh <repro-id> [N]   [EXP_SCALE etc. from the environment]
#
# `repro` is built with debug info and frame pointers into target/profile,
# so the normal release build is untouched. gprofng samples with its own
# clock profiler and needs no perf_events. The experiments stay at
# target/profile/<repro-id>.<run>.er for `gprofng display text` queries
# (callers, source lines).
set -euo pipefail
if [ $# -lt 1 ] || [ $# -gt 2 ] || ! [[ "${2:-1}" =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: $0 <repro-id> [N]   (cargo run --release -p uburst-bench --bin repro -- list)" >&2
    exit 2
fi
runs=${2:-1}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="$root/target/profile"
CARGO_PROFILE_RELEASE_DEBUG=true RUSTFLAGS="-C force-frame-pointers=yes" \
    cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p uburst-bench --bin repro --target-dir "$target"
# CPU seconds of this shell's waited-for children: line 2 of bash `times`,
# which must run in this shell (a subshell's children start at zero).
children_cpu() {
    awk 'NR == 2 { split($1, u, /[ms]/); split($2, s, /[ms]/);
        printf "%.3f", u[1] * 60 + u[2] + s[1] * 60 + s[2] }' "$1"
}
times > "$target/$1.times"
cpu_before=$(children_cpu "$target/$1.times")
exps=()
for run in $(seq 1 "$runs"); do
    exp="$target/$1.$run.er"
    rm -rf "$exp"
    gprofng collect app -O "$exp" "$target/release/repro" "$1" > "$target/$1.stdout"
    exps+=("$exp")
done
times > "$target/$1.times"
cpu_after=$(children_cpu "$target/$1.times")
# Total CPU is summed over the experiments; the overview's duration is the
# first experiment's, so the duration is summed from the headers.
overview=$(gprofng display text -overview "${exps[@]}" 2>&1)
header=$(gprofng display text -header "${exps[@]}" 2>&1)
duration=$(awk '/Data Collection Duration:/ { d += $4 } END { printf "%.3f", d }' <<< "$header")
captured=$(sed -n 's/.*Total CPU Time.*\[\**\([0-9.]*\)\].*/\1/p' <<< "$overview" | head -n 1)
interval_us=$(sed -n 's/.*Clock-profiling, interval = \([0-9]*\) microsecs.*/\1/p' <<< "$header" | head -n 1)
echo "== profile depth"
awk -v r="$runs" -v d="${duration:-?}" -v c="${captured:-0}" -v i="${interval_us:-10000}" \
    -v b="$cpu_before" -v a="$cpu_after" 'BEGIN {
    run = a - b; n = int(c * 1e6 / i + 0.5)
    printf "%d run(s); duration %s s; run CPU (getrusage) %.3f s; captured Total CPU %.3f s", r, d, run, c
    if (run > 0) printf " (%.0f %%)", 100 * c / run
    printf "; %d samples of %d us\n", n, i
    if (n < 1000) printf "warning: only %d samples (< 1000): give a larger run count N before citing a percentage\n", n
}'
grep -o 'Collector Warning: .*' <<< "$header" | sort -u || true
for sort in exclusive:e.totalcpu inclusive:i.totalcpu; do
    echo "== top 30 functions by ${sort%%:*} CPU time"
    gprofng display text -metrics e.%totalcpu:i.%totalcpu -sort "${sort#*:}" \
        -limit 30 -functions "${exps[@]}" 2>&1 | grep -v '^Current \|^Print limit'
done
