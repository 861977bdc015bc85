#!/bin/sh
# Alternating parent / change pairs of benchmark workloads — the
# measurement every performance claim in CHANGES.md rests on (the rule is in
# benchmark/README.md: at least ten pairs, the change ahead in nine tenths
# of them, medians apart by more than the parent's own q1–q3 distance).
#
# usage: tools/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD[,WORKLOAD...] [PAIRS=10]
#
# Builds the driver of both checkouts once (each into its own
# benchmark/target, so nothing compiles while a measurement runs). Then, per
# workload in the comma-separated list, in order, runs the contract command
# (`--workload W --seed 2005 --seconds 15 --trace 0`) PAIRS times per side,
# alternating which side goes first, and prints per end-to-end metric each
# side's median [q1–q3] and the pairs the change won (ties count for
# neither side), then whether `usage_ratio` — a virtual value, an exact
# function of the seed — was bit-equal across every run of both sides, or
# else each side's distinct values. Exits 1 if any run of any workload
# reports `correct: false`.
set -eu
[ $# -ge 3 ] || { sed -n '2,18p' "$0"; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workloads=$3
pairs=${4:-10}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for dir in "$parent" "$change"; do
    (cd "$dir" && CARGO_TARGET_DIR="$dir/benchmark/target" \
        cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml)
done

# One measurement of side $1 (a checkout) on workload $2, its result line
# appended to $3.
measure() {
    (cd "$1" && "$1/benchmark/target/release/sbon_benchmark" \
        --workload "$2" --seed 2005 --seconds 15 --trace 0 | tail -n 1) >>"$3"
}

# The table of workload $1's runs; returns 1 if a run reported incorrect.
report() {
    python3 - "$change/BENCHMARK.json" "$out/$1.parent.jsonl" "$out/$1.change.jsonl" "$1" <<'EOF'
import json
import statistics
import sys

manifest, parent_path, change_path, workload = sys.argv[1:]
parent = [json.loads(line) for line in open(parent_path)]
change = [json.loads(line) for line in open(change_path)]


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return statistics.median(values), q1, q3


print(f"{workload}: {len(parent)} alternating pairs (parent -> change, median [q1-q3])")
for metric in json.load(open(manifest))["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    p = [run["metrics"][name]["value"] for run in parent]
    c = [run["metrics"][name]["value"] for run in change]
    wins = sum((y > x) if higher else (y < x) for x, y in zip(p, c))
    losses = sum((y < x) if higher else (y > x) for x, y in zip(p, c))
    (pm, p1, p3), (cm, c1, c3) = summary(p), summary(c)
    apart = abs(cm - pm) > p3 - p1
    print(
        f"  {name:<13} {pm:.4g} [{p1:.4g}-{p3:.4g}] -> {cm:.4g} [{c1:.4g}-{c3:.4g}] {metric['unit']}"
        f"  change won {wins}, lost {losses}; medians "
        + ("more than the parent's q1-q3 distance apart" if apart else "within the parent's q1-q3 distance")
    )
# Bit-equality, by each value's exact hex spelling.
ratios = {side: sorted({float.hex(run["metrics"]["usage_ratio"]["value"]) for run in runs})
          for side, runs in (("parent", parent), ("change", change))}
if len(set(ratios["parent"]) | set(ratios["change"])) == 1:
    value = float.fromhex(ratios["parent"][0])
    print(f"  usage_ratio bit-equal across all {len(parent) + len(change)} runs: {value!r}")
else:
    for side, values in ratios.items():
        print(f"  usage_ratio differs: {side} " + ", ".join(repr(float.fromhex(v)) for v in values))
incorrect = [side for side, runs in (("parent", parent), ("change", change))
             if not all(run["correct"] for run in runs)]
for side in incorrect:
    print(f"  {side}: a run reported correct: false")
sys.exit(1 if incorrect else 0)
EOF
}

status=0
for workload in $(echo "$workloads" | tr ',' ' '); do
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            measure "$parent" "$workload" "$out/$workload.parent.jsonl"
            measure "$change" "$workload" "$out/$workload.change.jsonl"
        else
            measure "$change" "$workload" "$out/$workload.change.jsonl"
            measure "$parent" "$workload" "$out/$workload.parent.jsonl"
        fi
        echo "$workload: pair $i/$pairs done" >&2
        i=$((i + 1))
    done
    report "$workload" || status=1
done
exit "$status"
