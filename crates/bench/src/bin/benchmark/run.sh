#!/usr/bin/env bash
# The command of /BENCHMARK.json: build the benchmark package (this
# directory, a workspace of its own) and the daemon it drives, then run it.
# Run from the root of a checkout; every argument goes to the benchmark:
#
#   bash crates/bench/src/bin/benchmark/run.sh --workload explore_cold --seed 1 --seconds 18 --trace 0
#
# Builds into $CARGO_TARGET_DIR (default .bench_build in the working
# directory) and writes scratch files under .bench_work there too; nothing
# outside the checkout is touched.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
