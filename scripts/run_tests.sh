#!/bin/sh
# Tier-1 test suite with BLAS pinned to one thread. The variables are set
# before Python starts, because BLAS reads them when numpy is imported;
# under default threading a shared 2-vCPU machine made single products
# bimodal (20 us or 4-8 ms) and the suite stalled. Extra arguments go to
# pytest, e.g. `scripts/run_tests.sh -k solvers`.
set -eu
cd "$(dirname "$0")/.."
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} exec python -m pytest -q \
    --continue-on-collection-errors "$@"
