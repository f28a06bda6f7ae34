#!/usr/bin/env bash
# Builds the daemon under test (brokerctl) and the benchmark from source,
# then runs the benchmark with the given arguments from the repository root.
#
#   bash benchmark/run.sh --workload hot --seed 7 --seconds 20 --trace 0
#   bash benchmark/run.sh run | trace | compare OLD.json NEW.json
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline -p uptime-broker --bin brokerctl
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
