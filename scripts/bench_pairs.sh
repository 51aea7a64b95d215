#!/bin/sh
# Alternating parent/change benchmark pairs from two checkouts.
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS [SECONDS]
#
# Each pair runs `perfbench/run.py --trace 0` once in each checkout; odd
# pairs start with the parent, even pairs with the change, so a drift of
# the host's speed does not favour one side. Every run prints one line
#
#   <pair> <side> <passes> <facts JSON> <result JSON>
#
# holding the run's pipeline pass count, its `facts` line and its last
# (result) line. A summary follows: each side's pass counts, pair by pair
# (`peak_rss_mb` grows with the passes a run makes, so after its line come
# each side's medians over only the pairs whose two runs made as many
# passes, and the count of such pairs), then per end-to-end metric, the
# median and quartiles of each side,
# the pairs the change won, and the verdict of the gain and regression
# rules: the change's median minus the parent's against the parent's
# interquartile range, whether the change won at least 9 of 10 pairs, and
# whether its median is worse than the parent's by more than the metric's
# `bound` in the change checkout's BENCHMARK.json (a fraction of the
# parent's median). Two checkouts of the same repository at two commits
# can be made with `git clone` and `git checkout`.
set -eu

if [ $# -lt 5 ]; then
    echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS [SECONDS]" >&2
    exit 1
fi
PARENT=$1
CHANGE=$2
WORKLOAD=$3
SEED=$4
PAIRS=$5
SECONDS_PER_RUN=${6:-30}
LINES=$(mktemp)
trap 'rm -f "$LINES"' EXIT

run() {  # run <pair> <side> <checkout>
    out=$(cd "$3" && python3 perfbench/run.py --workload "$WORKLOAD" --seed "$SEED" \
        --seconds "$SECONDS_PER_RUN" --trace 0) || {
        echo "pair $1: the $2 run failed" >&2
        exit 1
    }
    facts=$(printf '%s\n' "$out" | sed -n 's/^facts\t//p')
    passes=$(printf '%s\n' "$out" | sed -n 's/^passes\t\([0-9]*\).*/\1/p')
    printf '%s\t%s\t%s\t%s\t%s\n' "$1" "$2" "$passes" "$facts" "$(printf '%s\n' "$out" | tail -n 1)" | tee -a "$LINES"
}

pair=1
while [ "$pair" -le "$PAIRS" ]; do
    if [ $((pair % 2)) -eq 1 ]; then
        run "$pair" parent "$PARENT"
        run "$pair" change "$CHANGE"
    else
        run "$pair" change "$CHANGE"
        run "$pair" parent "$PARENT"
    fi
    pair=$((pair + 1))
done

python3 - "$LINES" "$CHANGE/BENCHMARK.json" <<'EOF'
import json
import statistics
import sys

runs = {}  # (pair, side) -> metrics
passes = {}  # (pair, side) -> pipeline passes of the run
for line in open(sys.argv[1], encoding="utf-8"):
    pair, side, count, _, result = line.rstrip("\n").split("\t")
    runs[int(pair), side] = {k: v["value"] for k, v in json.loads(result)["metrics"].items()}
    passes[int(pair), side] = count
pairs = sorted({p for p, _ in runs})
with open(sys.argv[2], encoding="utf-8") as fh:
    declared = {m["name"]: m for m in json.load(fh)["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def yes(flag):
    return "yes" if flag else "no"


print("passes\t" + "\t".join(f"{s} {' '.join(passes[p, s] for p in pairs)}" for s in ("parent", "change")))
for name in runs[pairs[0], "parent"]:
    sides = {s: [runs[p, s][name] for p in pairs] for s in ("parent", "change")}
    if any(v is None for vs in sides.values() for v in vs):
        print(f"{name}\tabsent in some run")
        continue
    sign = 1 if declared[name]["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
    (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(sides["parent"]), quartiles(sides["change"])
    gap, iqr, bound = cm - pm, pq3 - pq1, declared[name]["bound"]
    print(
        f"{name}\tparent {pm:.6g} [{pq1:.6g}, {pq3:.6g}]\tchange {cm:.6g} [{cq1:.6g}, {cq3:.6g}]"
        f"\tchange wins {wins}/{len(pairs)}"
        f"\tgap {gap:+.6g}, parent IQR {iqr:.6g}: better by more than the IQR {yes(sign * gap > iqr)}"
        f"\twon >= 9/10 {yes(10 * wins >= 9 * len(pairs))}"
        f"\tworse by more than bound {bound:g} {yes(-sign * gap > bound * abs(pm))}"
    )
    if name == "peak_rss_mb":
        equal = [p for p in pairs if passes[p, "parent"] == passes[p, "change"]]
        cells = [f"{s} {statistics.median([runs[p, s][name] for p in equal]):.6g}" for s in sides if equal]
        print("\t".join([f"{name} at equal passes", f"{len(equal)}/{len(pairs)} pairs", *cells]))
EOF
