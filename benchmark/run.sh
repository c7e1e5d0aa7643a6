#!/usr/bin/env bash
# Entry point named by the repository's BENCHMARK.json. The driver runs
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# from the root of a checkout; everything else is in README.md.
#
# Cargo looks its configuration up from the working directory, and the
# hermetic [patch] table lives in benchmark/.cargo/config.toml — so build
# and run from inside benchmark/.
set -euo pipefail
root="$PWD"
cd "$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
/*) ;;
*) [ -n "${CARGO_TARGET_DIR:-}" ] && target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
# Cargo's progress goes to stderr; stdout stays the result line's.
cargo build --release --offline --quiet
exec "$target/release/pipeline-benchmark" driver "$@"
