#!/usr/bin/env python3
"""Exact-counter gate (ROADMAP item 1b). Every `report_digest`, `usage_ratio`
and `counters` entry of a `run --quick` is an exact function of the seed, so a
fresh `benchmark/check.sh` result must equal the committed `BENCH_QUICK.json`.
A PR that legitimately moves one re-runs check.sh, copies
`benchmark/out/quick.json` over `BENCH_QUICK.json` and says why in CHANGES.md.

usage: tools/bench_gate.py [fresh.json [baseline.json]]"""
import json
import sys


def exact_facts(path):
    facts = {}
    for w in json.load(open(path))["workloads"]:
        facts[w["name"], "report_digest"] = w["report_digest"]
        facts[w["name"], "usage_ratio"] = w["end_to_end"]["usage_ratio"]["value"]
        facts.update({(w["name"], f"counters.{k}"): v for k, v in w["counters"].items()})
    return facts


def moved(fresh, baseline):
    """The facts whose values differ, one missing on either side included."""
    return [k for k in sorted(fresh.keys() | baseline.keys()) if fresh.get(k) != baseline.get(k)]


def main():
    fresh = exact_facts(sys.argv[1] if len(sys.argv) > 1 else "benchmark/out/quick.json")
    baseline = exact_facts(sys.argv[2] if len(sys.argv) > 2 else "BENCH_QUICK.json")
    changed = moved(fresh, baseline)
    for workload, fact in changed:
        print(f"{workload} {fact}: {baseline.get((workload, fact))} -> {fresh.get((workload, fact))}")
    print(f"bench gate: {len(baseline)} exact facts, {len(changed)} moved")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
