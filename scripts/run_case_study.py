#!/usr/bin/env python3
"""Case-study workflow on the synthetic birth-records-style dataset.

The real birth-records data are restricted, so this runs the same analysis on
the bundled synthetic generator with the same schema: random train/test splits
(100/900), a joint fit on standardized responses per split, and a report of
the estimated cross-response correlation and prediction losses.
"""
import argparse
import os
import sys

import numpy as np

from blqq import io as bio
from blqq.metrics import misclassification, rmse
from blqq.model import ChainConfig, Dataset, EffectOrders, PriorConfig, predict_draws
from blqq.sampler import run_chain
from blqq.simulate import gen_birth_records


def standardize(X, y, mu, sd, ymu, ysd):
    return (X - mu) / sd, (y - ymu) / ysd


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results/case_study")
    ap.add_argument("--splits", type=int, default=5)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--n-train", type=int, default=100)
    ap.add_argument("--rho", type=float, default=-0.85)
    ap.add_argument("--iterations", type=int, default=5000)
    ap.add_argument("--burn-in", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    full = gen_birth_records(seed=args.seed, n=args.n, rho=args.rho)
    orders = EffectOrders(np.ones(full.p, dtype=int))
    prior = PriorConfig()

    rows = []
    for split in range(args.splits):
        perm = np.random.default_rng(args.seed * 1000 + split).permutation(args.n)
        tr, te = perm[:args.n_train], perm[args.n_train:]
        mu, sd = full.X[tr].mean(axis=0), full.X[tr].std(axis=0)
        sd = np.where(sd > 0, sd, 1.0)
        ymu, ysd = full.y[tr].mean(), full.y[tr].std()
        Xtr, ytr = standardize(full.X[tr], full.y[tr], mu, sd, ymu, ysd)
        Xte, yte = standardize(full.X[te], full.y[te], mu, sd, ymu, ysd)
        train = Dataset(Xtr, ytr, full.z[tr], columns=full.columns)

        cfg = ChainConfig(iterations=args.iterations, burn_in=args.burn_in,
                          seed=args.seed + 17 * split)
        chain = run_chain(train, orders, prior, cfg)
        bio.write_chain_csv(os.path.join(args.out_dir, f"split{split}_chain.csv"),
                            chain, meta=bio.config_meta(cfg, prior, extra={"split": split}))

        y_hat, _, z_hat = predict_draws(chain, Xte, y=yte, z=full.z[te])
        lo, hi = np.quantile(chain.rho, [0.025, 0.975])
        rows.append([str(split), repr(float(chain.rho.mean())), repr(float(lo)), repr(float(hi)),
                     repr(float(rmse(yte, y_hat) * ysd)),
                     repr(misclassification(full.z[te], z_hat))])
        print(f"split {split}: rho_hat {chain.rho.mean():+.3f}  "
              f"RMSE {rmse(yte, y_hat) * ysd:.0f} g  ME {misclassification(full.z[te], z_hat):.3f}")

    bio._write_table(os.path.join(args.out_dir, "splits.csv"),
                     ["split", "rho_hat", "rho_q2.5", "rho_q97.5", "rmse_grams", "me"], rows,
                     meta={"seed": args.seed, "rho_target": args.rho})
    return 0


if __name__ == "__main__":
    sys.exit(main())
