#!/usr/bin/env python3
"""Mixing of blqq's sampler per second of chain time, or a comparison of two runs.

    python3 scripts/mixing.py <checkout> [--seeds 1 2 3 4 5] [--shapes n1000_p10 ...]
    python3 scripts/mixing.py --compare <before.jsonl> <after.jsonl>

Runs blqq.sampler.run_chain of <checkout> (imported from <checkout>/src) in
this process, with one BLAS thread, on simulated data: for each seed s,
gen_replicate(SimulationScenario(p=p, sparsity=0.2, rho_true=0.85,
n_train=n, replicates=1, base_seed=s), 0).train with every effect order 1,
and a chain of ChainConfig(iterations=I, burn_in=500, seed=s) under the
default prior. The shapes (n, p, I) are

    n1000_p10: 1000 rows, 10 columns, 6,000 iterations
    n300_p10:   300 rows, 10 columns, 10,000 iterations
    n100_p10:   100 rows, 10 columns, 20,000 iterations
    n100_p30:   100 rows, 30 columns, 20,000 iterations

Prints one JSON line per chain: the shape and seed, the chain's wall seconds,
the ESS of every stored column (metrics.effective_sample_size), the minimum
ESS with the column that sets it, the minimum ESS per second, the acceptance
rates, the final MH steps, loo_fallbacks, ChainOutput.timings and a SHA-256 of
the stored draws, which tells whether two runs drew the same chain.

--compare pairs the chains of two such outputs by (shape, seed) and prints
one JSON line per shape: the medians over seeds of the after/before ratios of
the minimum ESS per second, the minimum ESS and the seconds, how many seeds
the minimum ESS per second rose in, and how many chains are identical.
"""
import argparse
import hashlib
import json
import os
import statistics
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"    # before numpy loads

SHAPES = {"n1000_p10": (1000, 10, 6000), "n300_p10": (300, 10, 10_000),
          "n100_p10": (100, 10, 20_000), "n100_p30": (100, 30, 20_000)}
BURN_IN = 500


def run(checkout, shapes, seeds):
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isfile(os.path.join(src, "blqq", "sampler.py")):
        sys.exit(f"no blqq sources under {src}")
    sys.path.insert(0, src)
    import numpy as np
    from blqq.metrics import effective_sample_size
    from blqq.model import ChainConfig, EffectOrders, PriorConfig, draw_columns
    from blqq.sampler import run_chain
    from blqq.simulate import SimulationScenario, gen_replicate

    for shape in shapes:
        n, p, iterations = SHAPES[shape]
        for seed in seeds:
            data = gen_replicate(SimulationScenario(
                p=p, sparsity=0.2, rho_true=0.85, n_train=n, replicates=1, base_seed=seed), 0).train
            tic = time.perf_counter()
            out = run_chain(data, EffectOrders(np.ones(p, dtype=int)), PriorConfig(),
                            ChainConfig(iterations=iterations, burn_in=BURN_IN, seed=seed))
            seconds = time.perf_counter() - tic
            ess = {name: effective_sample_size(col)
                   for name, col in zip(draw_columns(p), out.draws.T)}
            argmin = min(ess, key=ess.get)
            print(json.dumps({
                "shape": shape, "seed": seed, "n": n, "p": p, "iterations": iterations,
                "seconds": round(seconds, 4),
                "min_ess": round(ess[argmin], 2), "argmin": argmin,
                "min_ess_per_s": round(ess[argmin] / seconds, 4),
                "ess": {k: round(v, 2) for k, v in ess.items()},
                "acceptance": {k: round(v, 4) for k, v in out.acceptance.items()},
                "steps": {k: round(v, 4) for k, v in out.steps.items()},
                "loo_fallbacks": out.loo_fallbacks,
                "timings": {k: round(v, 4) for k, v in out.timings.items()},
                "draws_sha256": hashlib.sha256(out.draws.tobytes()).hexdigest(),
            }), flush=True)


def compare(before, after):
    def load(path):
        with open(path) as fh:
            return {(r["shape"], r["seed"]): r for r in map(json.loads, filter(str.strip, fh))}

    b, a = load(before), load(after)
    for shape in SHAPES:
        keys = sorted(k for k in b.keys() & a.keys() if k[0] == shape)
        if not keys:
            continue

        def ratios(field):
            return [a[k][field] / b[k][field] for k in keys]

        print(json.dumps({
            "shape": shape, "seeds": [k[1] for k in keys],
            "min_ess_per_s_ratio_median": round(statistics.median(ratios("min_ess_per_s")), 3),
            "min_ess_ratio_median": round(statistics.median(ratios("min_ess")), 3),
            "seconds_ratio_median": round(statistics.median(ratios("seconds")), 3),
            "min_ess_per_s_wins": f"{sum(r > 1.0 for r in ratios('min_ess_per_s'))}/{len(keys)}",
            "identical_chains": f"{sum(a[k]['draws_sha256'] == b[k]['draws_sha256'] for k in keys)}"
                                f"/{len(keys)}",
        }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", nargs="?")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    ap.add_argument("--shapes", nargs="+", choices=list(SHAPES), default=list(SHAPES))
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
    elif args.checkout:
        run(args.checkout, args.shapes, args.seeds)
    else:
        ap.error("give a checkout or --compare BEFORE AFTER")


if __name__ == "__main__":
    main()
