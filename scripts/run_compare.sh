#!/bin/sh
# Batch PnP-FISTA / PnP-ADMM on a fixed measurement subset versus online
# PnP-SGD with the same per-iteration budget; SNR-vs-iteration and
# SNR-vs-wallclock SVG plots.
set -eu
OUT=${1:-results/compare}

pnp compare --set iterations=600 --set batch_size=4 -o "$OUT"

echo "Comparison: $OUT/compare.csv"
