#!/usr/bin/env bash
# Build lucky-load and run it. The one command of the benchmark:
#
#   benchmark/run.sh [--seed N] [--quick]
#       all six workloads, each in a process of its own, untraced then
#       traced; prints `workload metric value unit` per metric, writes
#       benchmark/out/results.json, exits non-zero on any correctness
#       failure. --quick is the smoke mode (~20 s, numbers not for
#       comparison).
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload; the last line of stdout is the result object
#       BENCHMARK.json describes.
#   benchmark/run.sh --repeat N [--seed N]
#       what repeat.sh runs.
#
# Builds into $CARGO_TARGET_DIR when set (a relative one is taken from
# the current directory, as cargo would), else into the repo's target/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$(dirname "$here")/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
# Build chatter goes to stderr: stdout's last line is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/lucky-load" --out "$here/out" "$@"
