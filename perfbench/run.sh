#!/usr/bin/env bash
# Builds the release `nfdtool` and the benchmark driver from this checkout,
# then runs one workload. From the repository root:
#
#   bash perfbench/run.sh --workload cli_wide --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`), fixtures
# and span dumps to `.bench_work`. The last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin nfdtool >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
RUSTC_VERSION="$(rustc --version)" "$CARGO_TARGET_DIR/release/perfbench" \
    --nfdtool "$CARGO_TARGET_DIR/release/nfdtool" --work .bench_work "$@"
