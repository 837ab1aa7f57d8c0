#!/usr/bin/env bash
# Build the benchmark (release, this package's own workspace and profile)
# and run it. Every argument is passed through:
#
#   run.sh --workload W --seed S --seconds T --trace 0|1   one run (the BENCHMARK.json command)
#   run.sh [--seed S]                                      all four workloads, end-to-end metrics
#   run.sh --trace 1                                       all four workloads, per-layer metrics + out/trace.json
#   run.sh --repeat N                                      N complete runs + the noise table
#
# Run from anywhere; everything it writes stays under benchmark/out and
# the cargo target directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
  --out-root "$here/out" "$@"
