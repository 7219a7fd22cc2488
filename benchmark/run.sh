#!/usr/bin/env bash
# The benchmark's single entry point: builds the benchmark crate from source
# (release, offline) and runs it from the repo root.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N]           # every workload, timed then traced
#   benchmark/run.sh --smoke              # the same with a few steps each
#
# Build output goes to $CARGO_TARGET_DIR when set, else benchmark/target;
# neither the root Cargo.toml nor its lock file is touched.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

# Provenance the program cannot see for itself. An exported checkout is not
# a git repository; the commit then reads "unknown".
PF_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
PF_BENCH_COMMIT="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
export PF_BENCH_RUSTC PF_BENCH_COMMIT

exec "$target/release/pipefisher-benchmark" "$@"
