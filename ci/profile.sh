#!/usr/bin/env bash
# Profiles one `repro` run and prints where its CPU time goes: the top 30
# functions by exclusive and by inclusive CPU time.
#
#   bash ci/profile.sh <repro-id> [EXP_SCALE etc. from the environment]
#
# `repro` is built with debug info and frame pointers into target/profile,
# so the normal release build is untouched. gprofng samples with its own
# clock profiler and needs no perf_events. The experiment stays at
# target/profile/<repro-id>.er for `gprofng display text` queries (callers,
# source lines).
set -euo pipefail
if [ $# -ne 1 ]; then
    echo "usage: $0 <repro-id>   (cargo run --release -p uburst-bench --bin repro -- list)" >&2
    exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="$root/target/profile"
CARGO_PROFILE_RELEASE_DEBUG=true RUSTFLAGS="-C force-frame-pointers=yes" \
    cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p uburst-bench --bin repro --target-dir "$target"
exp="$target/$1.er"
rm -rf "$exp"
gprofng collect app -O "$exp" "$target/release/repro" "$1" > "$target/$1.stdout"
for sort in exclusive:e.totalcpu inclusive:i.totalcpu; do
    echo "== top 30 functions by ${sort%%:*} CPU time"
    gprofng display text -metrics e.%totalcpu:i.%totalcpu -sort "${sort#*:}" \
        -limit 30 -functions "$exp" 2>&1 | grep -v '^Current \|^Print limit'
done
