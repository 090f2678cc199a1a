#!/bin/sh
# Scalar divergence demonstration: a bounded (but non-averaged) shift
# denoiser makes PnP-ISTA diverge linearly when sigma > gamma/sqrt(c); the
# command runs the fixed (gamma, sigma, c, z0) = (0.5, 1, 1, 0.1).
set -eu
OUT=${1:-results/counterexample}

pnp counterexample --set iterations=1000 -o "$OUT"

echo "Trace: $OUT/counterexample.csv"
