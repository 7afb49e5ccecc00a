#!/usr/bin/env bash
# Times the product end to end: `repro` at one or more git revisions, run
# interleaved on this host, one JSON line per revision appended to
# BENCH_repro.jsonl at the repo root.
#
#   bash ci/bench_repro.sh [-k K] [-i "ID ..."] REV...
#
#   -k K     runs per id and revision (default 5)
#   -i IDS   the `repro` ids to run (default: `all` and every `ext_*` id
#            that the first revision's `repro list` prints)
#   REV      anything `git rev-parse` names; an uncommitted tree can be
#            named by the commit `git stash create` prints
#
# Each revision's `repro` is built once, in a `git worktree` under
# target/bench_repro (removed again on exit; the binary is kept there as
# repro-<sha>, so a rerun does not rebuild it). Runs are interleaved: for
# each round and id every revision runs once, the revision that goes
# first rotating by round. Wall time is taken around the child, CPU time
# and peak RSS from the `wait4` rusage of that child, so nothing outside
# the script's own processes is read. The work done comes from the
# telemetry epilogue that `repro all` prints (`uburst_poller_polls_total`,
# `uburst_poller_campaigns_total`, and polls per second of median wall);
# other ids print none and record `null`. Each line carries the median and
# quartiles of wall, CPU and peak RSS per id, every run's exit status, the
# revision, rustc, nproc, the CPU model, `EXP_SCALE`, `UBURST_THREADS` and
# the sitting's start time, which is the same on every line of one
# invocation: compare rows of one sitting only.
set -euo pipefail
usage() {
    echo "usage: $0 [-k K] [-i \"ID ...\"] REV..." >&2
    exit 2
}
k=5
ids=""
while getopts k:i: opt; do
    case $opt in
        k) k=$OPTARG ;;
        i) ids=$OPTARG ;;
        *) usage ;;
    esac
done
shift $((OPTIND - 1))
[ $# -ge 1 ] || usage
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/target/bench_repro"
mkdir -p "$work"
worktrees=()
cleanup() {
    for wt in "${worktrees[@]}"; do
        git -C "$root" worktree remove --force "$wt" || true
    done
}
trap cleanup EXIT
shas=()
for rev in "$@"; do
    sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
    bin="$work/repro-$sha"
    if [ ! -x "$bin" ]; then
        wt="$work/worktree-$sha"
        rm -rf "$wt"
        git -C "$root" worktree add --detach --quiet "$wt" "$sha"
        worktrees+=("$wt")
        echo "building repro at $sha" >&2
        cargo build --release --offline --quiet --manifest-path "$wt/Cargo.toml" \
            -p uburst-bench --bin repro --target-dir "$work/target"
        cp "$work/target/release/repro" "$bin"
    fi
    shas+=("$sha")
done
if [ -z "$ids" ]; then
    ids="all $("$work/repro-${shas[0]}" list | grep '^ext_' | tr '\n' ' ')"
fi
cpu_model=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)
python3 - "$work" "$root/BENCH_repro.jsonl" "$k" "$ids" "$(rustc -V)" "$(nproc)" \
    "$cpu_model" "${shas[@]}" <<'PY'
import datetime, json, os, statistics, subprocess, sys, time

work, out_path, k, ids, rustc, nproc, cpu_model, *shas = sys.argv[1:]
k, ids = int(k), ids.split()
sitting = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
runs = {(sha, i): [] for sha in shas for i in ids}
WORK = (b"uburst_poller_polls_total", b"uburst_poller_campaigns_total")
work_done = {}
stdout_path = os.path.join(work, "stdout")
for r in range(k):
    for i in ids:
        for sha in shas[r % len(shas):] + shas[:r % len(shas)]:
            with open(stdout_path, "wb") as f:
                t0 = time.monotonic()
                child = subprocess.Popen([os.path.join(work, "repro-" + sha), i],
                                         stdout=f, stderr=subprocess.DEVNULL)
                _, status, ru = os.wait4(child.pid, 0)
                wall = time.monotonic() - t0
            run = {"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
                   "peak_rss_mb": ru.ru_maxrss / 1024,
                   "exit": os.waitstatus_to_exitcode(status)}
            runs[sha, i].append(run)
            with open(stdout_path, "rb") as f:
                for line in f:
                    name, _, value = line.partition(b" ")
                    if name in WORK:
                        work_done[sha, i, name.decode()] = int(value)
            print(f"round {r + 1}/{k} {i} {sha[:10]}: wall {wall:.2f} s, "
                  f"exit {run['exit']}", file=sys.stderr)

def spread(xs):
    if len(xs) == 1:
        return {"q1": xs[0], "median": xs[0], "q3": xs[0]}
    q1, m, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(m, 4), "q3": round(q3, 4)}

with open(out_path, "a") as out:
    for sha in shas:
        row = {"rev": sha, "sitting": sitting, "revs": shas, "k": k,
               "exp_scale": os.environ.get("EXP_SCALE", "quick"),
               "uburst_threads": os.environ.get("UBURST_THREADS"),
               "rustc": rustc, "nproc": int(nproc), "cpu_model": cpu_model, "ids": {}}
        for i in ids:
            rs = runs[sha, i]
            entry = {m: spread([x[m] for x in rs]) for m in ("wall_s", "cpu_s", "peak_rss_mb")}
            entry["exit"] = [x["exit"] for x in rs]
            for name in WORK:
                entry[name.decode()] = work_done.get((sha, i, name.decode()))
            polls = entry["uburst_poller_polls_total"]
            entry["polls_per_s"] = polls and round(polls / entry["wall_s"]["median"])
            row["ids"][i] = entry
        out.write(json.dumps(row) + "\n")
PY
