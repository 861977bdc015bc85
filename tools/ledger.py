#!/usr/bin/env python3
"""The committed perf trajectory in one view (ROADMAP item 3(d)).

Prints one row per committed `BENCH_<pr>.json` x workload, in PR order: the
five end-to-end medians, `overlay.tick_ms_sum`, and every exact fact (digest,
`usage_ratio`, counter) that moved against the same workload in the previous
file (`name old -> new`, compared as `tools/bench_gate.py` compares them).

usage: tools/ledger.py [DIR]     (DIR: where the BENCH files are; default .)

Host times are single suite passes on a shared host; a claim still rests on
ten alternating pairs (`tools/bench_pairs.sh`). Exits 1 if a file cannot be
read, so CI keeps it working against the committed files."""
import glob
import json
import os
import re
import sys

from bench_gate import exact_facts, moved

END_TO_END = ["setup_s", "wall_s", "ticks_per_s", "peak_rss_mib", "usage_ratio"]
TICK = "overlay.tick_ms_sum"


def ledger_files(root):
    found = []
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        match = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path))
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def cell(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    files = ledger_files(root)
    if not files:
        print(f"no BENCH_<pr>.json under {root}", file=sys.stderr)
        return 1
    header = ["pr", "workload"] + END_TO_END + [TICK]
    print("  ".join(f"{h:>12}" for h in header), "  moved exact facts")
    previous = {}
    for pr, path in files:
        facts = exact_facts(path)
        for w in json.load(open(path))["workloads"]:
            name = w["name"]
            medians = [w["end_to_end"].get(m, {}).get("median") for m in END_TO_END]
            tick = w.get("per_layer", {}).get(TICK)
            mine = {k: v for k, v in facts.items() if k[0] == name}
            before = previous.get(name)
            previous[name] = mine
            row = [str(pr), name] + [cell(v) for v in medians] + [cell(tick)]
            if before is None:
                note = "(first file)"
            else:
                note = "; ".join(
                    f"{k[1].removeprefix('counters.')} {cell(before.get(k))} -> {cell(mine.get(k))}"
                    for k in moved(mine, before)
                )
            print("  ".join(f"{c:>12}" for c in row), " ", note or "-")
    return 0


if __name__ == "__main__":
    sys.exit(main())
