#!/usr/bin/env bash
# Runs every paper figure and table bin that finishes in seconds (about 4 s
# together) and writes each bin's stdout to <out-dir>/<bin>.tsv, stopping at
# the first bin that fails. fig13_accuracy (~5 min) and fig16_mcache_sweep
# (~1 min) stay out. The output is deterministic, so `diff -r` of the
# out-dirs of two checkouts shows every bit a change moved.
#
#   crates/bench/fast_bins.sh <out-dir>
set -euo pipefail

out=${1:?usage: crates/bench/fast_bins.sh <out-dir>}
mkdir -p "$out"
out=$(cd "$out" && pwd)
cd "$(dirname "$0")/../.."

for bin in \
    fig01_similarity \
    fig03_unique_vectors \
    fig08_pipeline \
    fig14_performance \
    fig15_vgg13 \
    fig17_comparison \
    fig18_dataflows \
    table01_memory_types \
    table02_04_resources \
    ablation_sig_len \
    ablation_sync_async \
    ablation_banked_cache; do
    cargo run -q --release -p mercury-bench --bin "$bin" >"$out/$bin.tsv" ||
        { echo "fast_bins.sh: $bin failed" >&2; exit 1; }
done
