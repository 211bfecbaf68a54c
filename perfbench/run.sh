#!/usr/bin/env bash
# Builds kpg_server and the perfbench binary from source, then runs one benchmark.
#
#   bash perfbench/run.sh --workload interactive|ingest|fixpoint \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. The last line of standard output is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p kpg_server --bin kpg_server >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server-bin "$CARGO_TARGET_DIR/release/kpg_server" --work-dir .perfbench "$@"
