#!/usr/bin/env bash
# Smoke check of the benchmark driver itself: its unit tests (percentile
# rule, digest stability, span arithmetic, a quick pass of every workload
# twice) and one quick run of the whole suite with every correctness check.
# Not wired into CI yet; run it from anywhere.
set -euo pipefail
cd "$(dirname "$0")"
cargo test --release --offline --quiet
cargo run --release --offline --quiet -- run --quick --seconds 2 --out out/quick.json
