#!/usr/bin/env bash
# Builds the iyp binary and the benchmark harness from this checkout,
# then runs one workload. Run from the repository root:
#
#   bash iypbench/run.sh --workload lookup --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build), scratch
# files to .bench_work. The last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin iyp >&2
cargo build --release --offline --quiet --manifest-path iypbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/iypbench" \
    --iyp "$CARGO_TARGET_DIR/release/iyp" --work .bench_work "$@"
