#!/usr/bin/env python3
"""Regenerate perfbench/references.json, the stored correct answers.

    python3 perfbench/make_reference.py

For every workload and every pnp seed that a benchmark run with
--seed 0..SEEDS-1 uses and that has no stored value yet, runs simulate and
reconstruct, checks every output except the reference itself, and stores
the final snr_db and dist of the trace. Seeds with no stored value are checked against an envelope: the
range of the stored values, widened by ENVELOPE_SNR_DB and
ENVELOPE_DIST_FACTOR. Run it only when a change to the program is meant to
change the numbers, after deleting the stored values it changes.
"""

import json
import shutil
import sys

import run

RTOL = {"snr_db": 1e-6, "dist": 1e-4}
ENVELOPE_SNR_DB = 1.0
ENVELOPE_DIST_FACTOR = 4.0
SEEDS = 12  # benchmark --seed values with stored references


def reference(name, exact):
    """Add the missing pnp seeds of --seed 0..SEEDS-1 to `exact`."""
    workload = run.WORKLOADS[name]
    work = run.STATE_DIR / "reference-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for seed in range(SEEDS):
            for pnp_seed in run.pnp_seeds(workload, seed):
                if str(pnp_seed) in exact:
                    continue
                runner = run.Runner(work)
                bench = run.Run(name, workload, runner, None)
                if bench.simulate(pnp_seed) is not None:
                    bench.reconstruct(pnp_seed, work / "recon")
                if runner.failures:
                    raise SystemExit(f"{name} seed={pnp_seed}: "
                                     f"{runner.failures}")
                exact[str(pnp_seed)] = list(bench.finals[pnp_seed])
                print(f"{name} seed={pnp_seed}: {exact[str(pnp_seed)]}",
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    snrs = [snr for snr, _ in exact.values()]
    dists = [dist for _, dist in exact.values()]
    envelope = {"snr_db": [min(snrs) - ENVELOPE_SNR_DB,
                           max(snrs) + ENVELOPE_SNR_DB],
                "dist": [min(dists) / ENVELOPE_DIST_FACTOR,
                         max(dists) * ENVELOPE_DIST_FACTOR]}
    return {"exact": exact, "envelope": envelope}


def main():
    path = run.BENCH_DIR / "references.json"
    references = (json.loads(path.read_text(encoding="utf-8"))
                  if path.is_file() else {})
    references["rtol"] = RTOL
    run.STATE_DIR.mkdir(exist_ok=True)
    for name in sorted(run.WORKLOADS):
        exact = references.get(name, {}).get("exact", {})
        references[name] = reference(name, exact)
        with open(path, "w", encoding="ascii") as fh:
            json.dump(references, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
