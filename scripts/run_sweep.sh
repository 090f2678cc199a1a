#!/bin/sh
# Step-size and minibatch-size sweep for both denoisers (the cells of
# cli.SWEEP_GAMMAS and cli.SWEEP_BATCHES); writes summary.csv plus per-cell
# SVG convergence plots.
set -eu
OUT=${1:-results/sweep}

pnp sweep --set iterations=400 -o "$OUT"

echo "Summary: $OUT/summary.csv"
