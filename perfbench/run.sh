#!/usr/bin/env bash
# Builds the service with the repository's own manifest and the
# benchmark beside it, then runs one workload from the repository root:
#
#   bash perfbench/run.sh --workload sim-contended|serve-cold|serve-warm \
#       --seed N --seconds S --trace 0|1
#
# CARGO_TARGET_DIR picks the build directory (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p offchip-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
