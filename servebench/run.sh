#!/usr/bin/env bash
# Builds `rap` and the benchmark from source, then runs one benchmark
# run. Run from the repository root:
#
#   bash servebench/run.sh --workload syringe_audit --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); run
# records and span files go to .bench_out/.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p rap-cli >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" --rap "$CARGO_TARGET_DIR/release/rap" "$@"
