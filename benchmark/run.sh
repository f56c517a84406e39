#!/usr/bin/env bash
# The benchmark's one command: builds `rmcd` and the harness from source,
# then runs the harness with the arguments given (see README.md).
#
#   bash benchmark/run.sh --workload wire_a --seed 42 --seconds 10 --trace 0
#   bash benchmark/run.sh                 # all four workloads, every metric
#   bash benchmark/run.sh --smoke         # the same in a few seconds
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"

# path_a's three file-backed backups hold one descriptor per staged segment
# (about 1 100 in a round); lift a 1024 soft limit where the hard one allows.
soft="$(ulimit -Sn)"
if [ "$soft" != unlimited ] && [ "$soft" -lt 4096 ]; then
    ulimit -Sn 4096 2>/dev/null || true
fi

build() {
    cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml --target-dir "$target" "$@" >&2
}
# `rmcd` is a binary of a dependency, so it is named by package; the harness
# finds it beside itself (`rmc_standalone::rmcd_sibling_path`).
build -p rmc-standalone --bin rmcd
build --bin rmc-benchmark

exec "$target/release/rmc-benchmark" "$@"
