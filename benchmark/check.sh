#!/usr/bin/env bash
# Runs the whole benchmark twice on one commit and one seed and checks that
# the two runs agree within the benchmark's own bounds: every end-to-end
# metric resolved and its medians within its bound, every count and
# fingerprint identical, no failed trial or check. 40 s per workload, twice
# a driver run: about ten trials per metric, so that one slow spell of the
# host does not leave a metric unresolved (with five, one run in eight has
# such a metric on the reference box). About 11 minutes.
# Usage: benchmark/check.sh [--seed N] [--seconds S]
set -euo pipefail
cd "$(dirname "$0")/.."
bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
for run in a b; do
    bench run --seconds 40 "$@"
    cp benchmark/out/result.json "benchmark/out/result_$run.json"
done
bench agree benchmark/out/result_a.json benchmark/out/result_b.json
