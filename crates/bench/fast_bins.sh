#!/usr/bin/env bash
# Runs every paper figure and table bin (about 22 s together as release
# builds on a 2-core x86-64 box: fig13_accuracy's training runs take 15 s,
# fig16_mcache_sweep 2 s) and writes each bin's stdout to
# <out-dir>/<bin>.tsv, stopping at the first bin that fails. The output is
# deterministic, so `diff -r` of the out-dirs of two checkouts shows every
# bit a change moved.
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
    fig13_accuracy \
    fig14_performance \
    fig15_vgg13 \
    fig16_mcache_sweep \
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
