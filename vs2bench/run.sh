#!/usr/bin/env bash
# Builds the release `vs2d` daemon and the benchmark from source, then
# runs the benchmark with the given arguments:
#
#   bash vs2bench/run.sh --workload forms-full --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs and the benchmark's
# scratch files go to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p vs2-serve --bin vs2d >&2
cargo build --release --quiet --offline --manifest-path vs2bench/Cargo.toml >&2
# Not `exec`: the benchmark reads the peak RSS of its own children, and
# an exec'd process would inherit the usage of the cargo builds above.
"$CARGO_TARGET_DIR/release/vs2bench" --vs2d "$CARGO_TARGET_DIR/release/vs2d" "$@"
