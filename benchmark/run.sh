#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it from the repository
# root. Arguments are passed through; see benchmark/README.md.
#
#   benchmark/run.sh                      every workload, end-to-end metrics
#   benchmark/run.sh --trace 1            ... and the traced pass and probes
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --selfcheck          the set twice, held to the bounds
#   benchmark/run.sh --smoke              one small pass each, for tests
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
# A relative CARGO_TARGET_DIR is relative to this directory, the root.
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/scd-benchmark" "$@"
