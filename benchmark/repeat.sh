#!/usr/bin/env bash
# benchmark/repeat.sh N [--seed BASE]
#
# N runs of every workload on one build (seeds BASE .. BASE+N-1,
# untraced pass only), then per workload x end-to-end metric: min,
# median, max, and the interquartile spread as a share of the median
# next to the bound BENCHMARK.json fixes for the metric. A pair whose
# spread exceeds its bound does not repeat well enough to gate on.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:?usage: repeat.sh N [--seed BASE]}"
shift
exec "$here/run.sh" --repeat "$n" "$@"
