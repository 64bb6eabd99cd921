#!/bin/sh
# Runs the three workloads one after another, untraced, each in its own
# process, and prints every report. Run from the repository root:
#   sh perfbench/run_all.sh [seed] [seconds]
set -e
seed="${1:-7}"
seconds="${2:-30}"
for w in cad-batch cad-stream-approx uniform-update-mix; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0
done
