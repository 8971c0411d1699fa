#!/usr/bin/env bash
# Entry point the benchmark driver calls (see ../BENCHMARK.json):
#
#   bash benchmark/run.sh --workload W --seed S --seconds X --trace 0|1
#
# Builds the harness from source and runs it with the arguments given.
# `--trace 1` (or the `trace` subcommand) selects the traced build,
# which alone carries loft-bench's counting allocator; end-to-end runs
# use the plain build. Both builds share one target directory.
set -euo pipefail

here="$(dirname "$0")"
features=()
prev=""
for arg in "$@"; do
    if [[ "$arg" == "trace" || ( "$prev" == "--trace" && "$arg" == "1" ) ]]; then
        features=(--features alloc-count)
    fi
    prev="$arg"
done

exec cargo run --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" ${features[@]+"${features[@]}"} -- "$@"
