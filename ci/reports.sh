#!/usr/bin/env bash
# Every report whose bytes REPORTS.sha256 pins, at CI scale, into reports/.
#
#   bash ci/reports.sh && sha256sum -c REPORTS.sha256
#
# A run that fails (a [MISS], a panic) stops the script with its status.
# Each axis of a row (threads, engine) writes its own file, and the
# manifest gives the files of one row the same hash, so an axis that
# drifts fails the check as surely as a change that moves them all.
# To accept an intended change: `sha256sum reports/* > REPORTS.sha256`,
# and say why in the change's description.
set -euo pipefail
cd "$(dirname "$0")/.."
unset UBURST_HYBRID
export EXP_SCALE=quick UBURST_THREADS=4
cargo build -q --release --workspace --examples
rm -rf reports
mkdir reports

repro() { # <report file> <id> [VAR=value ...]
    local file=$1 id=$2
    shift 2
    env "$@" cargo run -q --release -p uburst-bench --bin repro -- "$id" > "reports/$file"
}

repro all.t1.txt all UBURST_THREADS=1
repro all.t4.txt all
repro all.eager.txt all UBURST_HYBRID=0

repro ext_buffer_policy.t1.txt ext_buffer_policy UBURST_THREADS=1
repro ext_buffer_policy.t4.txt ext_buffer_policy
repro ext_buffer_policy.eager.txt ext_buffer_policy UBURST_HYBRID=0
repro ext_durability.t1.txt ext_durability UBURST_THREADS=1
repro ext_durability.t4.txt ext_durability
repro ext_fleet.t1.txt ext_fleet UBURST_THREADS=1
repro ext_fleet.t4.txt ext_fleet
for id in ablations ext_ecn_dctcp ext_fabric_tier ext_fault_tolerance ext_fct_tail \
    ext_flowlet_lb; do
    repro "$id.t4.txt" "$id"
done

for ex in quickstart burst_survey ecmp_imbalance tune_sampler; do
    cargo run -q --release --example "$ex" > "reports/$ex.txt"
done
# A relative CSV path keeps the `wrote …` line and analyze_csv's header stable.
cargo run -q --release --example collector_pipeline -- reports/collector_pipeline.csv \
    > reports/collector_pipeline.txt
cargo run -q --release -p uburst-bench --bin analyze_csv -- reports/collector_pipeline.csv 10 \
    > reports/analyze_csv.txt
