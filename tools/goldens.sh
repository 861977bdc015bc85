#!/bin/sh
# Every golden in one place: runs each binary whose stdout is deterministic
# and diffs it, after its cut, against tools/golden/NAME.stdout.
#
# usage: tools/goldens.sh [NAME...]     (no NAME: every entry below)
#
# Exits 1 if any output differs from its golden (the diff is printed, and the
# fresh output is kept in a temporary directory so a change that means to
# move a golden can copy it over), 2 on an unknown NAME. Regenerate a golden
# only for a change that means to move it, and say so in CHANGES.md.
set -eu
cd "$(dirname "$0")/.."

# One entry a line: NAME | ENV | CARGO TARGET | CUT (a `sed -E` script run
# over stdout before the diff; empty: none). What each one is the only
# CI-run driver of:
# - claim_mapping_error: the Hilbert catalog's mapping error and hops per
#   dimensionality (C1, smoke size).
# - fig3: VectorOnlyOracleMapper, oracle vs DHT.
# - ablation_curves: a Morton-keyed catalog, k_nearest, exhaustive_closest.
# - fig1: two-step vs integrated usage and max_path_latency, pairwise join
#   selectivities.
# - ablation_placers: CentroidPlacer, GradientPlacer, virtual_cost (its
#   µs/place column cut).
# - fig2: EmbeddingErrorReport, relative_errors, the height model.
# - fig4: both reuse discovery paths and the registry's composed deploy (its
#   ms/query column cut).
# - link_stress: dijkstra::shortest_path and LinkTraffic, so Dijkstra's
#   equal-cost tie-breaking.
# - workload_storm: draining retained shared subtrees at storm scale (its
#   wall-time line cut); it asserts the drain back to the pre-workload
#   baseline itself.
# - multi_tenant_cq: the reuse deploy path (attach, marginal ranking,
#   standalone cost, register).
# - adaptive_reopt: dirty-driven local re-opt under all-node churn and
#   jitter.
# - claim_reopt: full re-opt swaps (C2; about 15 s).
# - partition_heal: routed message delays through sever, failover and heal;
#   it asserts reconvergence against an omniscient twin itself.
# - quickstart: the first program a reader runs (`sbon::prelude`, one
#   integrated and one two-step optimize on a 200-node world).
# - volcano_monitoring: the paper's motivating scenario, source filters on
#   a hand-built catalog with a default selectivity.
ENTRIES='
claim_mapping_error | SBON_SMOKE=1 | -p sbon_bench --bin claim_mapping_error |
fig3                |              | -p sbon_bench --bin fig3                |
ablation_curves     |              | -p sbon_bench --bin ablation_curves     |
fig1                |              | -p sbon_bench --bin fig1                |
ablation_placers    |              | -p sbon_bench --bin ablation_placers    | s/ +[0-9]+\.[0-9]+$//
fig2                |              | -p sbon_bench --bin fig2                |
fig4                |              | -p sbon_bench --bin fig4                | s/ +[0-9]+\.[0-9]+$//
link_stress         |              | --example link_stress                   |
workload_storm      | SBON_SMOKE=1 | --example workload_storm                | / s wall \(.* lifecycle ops\/s of wall time\)$/d
multi_tenant_cq     |              | --example multi_tenant_cq               |
adaptive_reopt      |              | --example adaptive_reopt                |
claim_reopt         |              | -p sbon_bench --bin claim_reopt         |
partition_heal      | SBON_SMOKE=1 | --example partition_heal                |
quickstart          |              | --example quickstart                    |
volcano_monitoring  |              | --example volcano_monitoring            |
'

trim() { printf '%s' "$1" | sed 's/^ *//; s/ *$//'; }

for want in "$@"; do
    printf '%s\n' "$ENTRIES" | grep -q "^$want " || { echo "unknown golden: $want" >&2; exit 2; }
done

out=$(mktemp -d)
failed=0
while IFS='|' read -r name env target cut; do
    name=$(trim "$name")
    [ -n "$name" ] || continue
    if [ $# -gt 0 ]; then
        case " $* " in *" $name "*) ;; *) continue ;; esac
    fi
    # $env and $target are word lists on purpose.
    # shellcheck disable=SC2086
    env $env cargo run --release --locked -q $target </dev/null | sed -E "$(trim "$cut")" >"$out/$name.stdout"
    if diff "tools/golden/$name.stdout" "$out/$name.stdout"; then
        echo "golden $name: ok"
    else
        echo "golden $name: DIFFERS (fresh output: $out/$name.stdout)"
        failed=1
    fi
done <<EOF
$ENTRIES
EOF

[ "$failed" -eq 0 ] && rm -rf "$out"
exit "$failed"
