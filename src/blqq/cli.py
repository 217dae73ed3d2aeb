"""Command-line surface: simulate / fit / predict / replicate / summarize.

Every command is fully seeded; rerunning with the same flags produces
byte-identical output files. Exit codes: 0 success, 2 validation error,
3 numeric failure (the RuntimeError of run_chain).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import io as bio
from .baselines import fit_sm_b
from .metrics import (
    LossReport,
    effective_sample_size,
    acf,
    fsl,
    l2_loss,
    misclassification,
    rmse,
    select_via_ci,
    summarize_draws,
)
from .model import ChainConfig, Dataset, EffectOrders, PriorConfig, predict_draws
from .sampler import run_chain
from .simulate import SimulationScenario, gen_replicate

GRID_RHOS = (0.0, 0.85, -0.5)
GRID_PS = (10, 30)
GRID_SPARSITIES = (0.2, 0.5)

LOSS_FIELDS = ("rmse", "me", "fsl", "l2_beta1", "l2_beta2", "rho_hat")
_MAX_ACF_LAG = 50      # acf lags written to diagnostics.csv, fewer for a short chain


def _setting_name(rho, p, s) -> str:
    return f"rho{rho:g}_p{p}_s{s:g}"


def _settings(args) -> list:
    """(rho, p, sparsity) of each setting to run: the 12-setting grid with
    --all, else the one given by --rho, --p and --sparsity."""
    if args.all:
        return [(r, p, s) for r in GRID_RHOS for p in GRID_PS for s in GRID_SPARSITIES]
    return [(args.rho, args.p, args.sparsity)]


def _float_in(low, high):
    """argparse type of a float flag that must lie in the open interval (low, high)."""
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        if not low < value < high:
            raise argparse.ArgumentTypeError(f"must lie in ({low:g}, {high:g}), got {text}")
        return value
    return parse


def _add_chain_flags(ap):
    ap.add_argument("--iterations", type=int, default=10_000)
    ap.add_argument("--burn-in", type=int, default=1_000)
    ap.add_argument("--thin", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--nu", type=float, default=2.0)
    ap.add_argument("--delta-sq", type=float, default=2.0)
    ap.add_argument("--beta-a", type=float, default=0.1)
    ap.add_argument("--beta-b", type=float, default=0.1)


def _chain_config(args) -> ChainConfig:
    return ChainConfig(iterations=args.iterations, burn_in=args.burn_in, thin=args.thin,
                       seed=args.seed)


def _prior_config(args) -> PriorConfig:
    return PriorConfig(nu=args.nu, delta_sq=args.delta_sq, a=args.beta_a, b=args.beta_b)


def evaluate_fit(chain, test: Dataset, beta1_true, beta2_true) -> LossReport:
    """All the loss measures for one fitted replicate."""
    y_hat, _, z_hat = predict_draws(chain, test.X, y=test.y, z=test.z)
    k = 2 * chain.p                 # the beta1 and beta2 columns
    selected = select_via_ci(summarize_draws(chain.draws[:, :k], chain.names[:k]))
    true_support = np.concatenate([beta1_true != 0, beta2_true != 0])
    fp, fn, total = fsl(selected, true_support)
    return LossReport(
        rmse=rmse(test.y, y_hat),
        me=misclassification(test.z, z_hat),
        fsl=total,
        fp=fp,
        fn=fn,
        l2_beta1=l2_loss(chain.beta1.mean(axis=0), beta1_true),
        l2_beta2=l2_loss(chain.beta2.mean(axis=0), beta2_true),
        rho_hat=float(chain.rho.mean()),
    )


def _write_fit_outputs(out_dir, chain, meta):
    os.makedirs(out_dir, exist_ok=True)
    bio.write_chain_csv(os.path.join(out_dir, "chain.csv"), chain, meta=meta)
    summary = summarize_draws(chain.draws, chain.names)
    bio.write_summary_csv(os.path.join(out_dir, "summary.csv"), summary, meta=meta)

    lag = min(_MAX_ACF_LAG, max(1, chain.n_stored // 2 - 1))
    acf_table = {}
    ess = {}
    for name, col in zip(chain.names, chain.draws.T):
        lo, hi = col.min(), col.max()   # a constant column has lo == hi; std could overflow
        if chain.n_stored >= 100:
            ess[name] = 1.0 if lo == hi else effective_sample_size(col)
        if name in ("sigma2", "rho") and lo < hi:
            acf_table[name] = acf(col, lag)
    bio.write_diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"),
                              chain.acceptance, chain.steps, chain.loo_fallbacks,
                              ess, acf_table, meta=meta)

    for name in ["sigma2", "rho"] + chain.names[:2 * chain.p]:
        bio.write_histogram_csv(os.path.join(out_dir, f"hist_{name}.csv"),
                                chain.column(name), meta=meta)


# --- subcommands -----------------------------------------------------------

def cmd_simulate(args) -> int:
    for rho, p, s in _settings(args):
        scenario = SimulationScenario(
            p=p, sparsity=s, rho_true=rho,
            n_train=args.n_train, n_test=args.n_test,
            sigma2_true=args.sigma2, replicates=args.replicates,
            base_seed=args.seed, fix_coefficients=args.fix_coefficients,
        )
        out = os.path.join(args.out_dir, _setting_name(rho, p, s))
        os.makedirs(out, exist_ok=True)
        meta = {"seed": args.seed, "rho_true": rho, "p": p, "sparsity": s}
        orders = EffectOrders(np.ones(p, dtype=int))
        for k in range(args.replicates):
            rep = gen_replicate(scenario, k)
            rep_meta = dict(meta, replicate=k)
            bio.write_dataset_csv(os.path.join(out, f"rep{k}_train.csv"),
                                  rep.train, orders=orders, meta=rep_meta)
            bio.write_dataset_csv(os.path.join(out, f"rep{k}_test.csv"),
                                  rep.test, orders=orders, meta=rep_meta)
            bio.write_truth_csv(os.path.join(out, f"rep{k}_truth.csv"), rep, meta=rep_meta)
    return 0


def cmd_fit(args) -> int:
    data, orders = bio.parse_dataset_csv(args.data)
    cfg = _chain_config(args)
    prior = _prior_config(args)
    if args.model == "smb":
        chain = fit_sm_b(data, orders, prior, cfg)
    else:
        chain = run_chain(data, orders, prior, cfg)
    meta = bio.config_meta(cfg, prior, extra={"model": args.model,
                                              "data": os.path.basename(args.data)})
    _write_fit_outputs(args.out_dir, chain, meta)
    return 0


def cmd_predict(args) -> int:
    chain = bio.read_chain_csv(args.chain)
    data, _ = bio.parse_dataset_csv(args.data, require_responses=False)
    if data.p != chain.p:
        raise bio.DatasetFormatError(
            f"dataset has {data.p} predictors but chain was fit with {chain.p}")
    y_hat, p_z1, z_hat = predict_draws(chain, data.X, y=data.y, z=data.z)
    losses = {}
    if data.y is not None:
        losses["rmse"] = rmse(data.y, y_hat)
    if data.z is not None:
        losses["me"] = misclassification(data.z, z_hat)
    bio.write_predictions_csv(args.out, y_hat, p_z1, z_hat,
                              y_true=data.y, z_true=data.z, losses=losses,
                              meta={"chain": os.path.basename(args.chain),
                                    "data": os.path.basename(args.data)})
    return 0


def run_setting(rho, p, s, replicates, prior: PriorConfig, cfg: ChainConfig):
    """Generate -> fit BLQQ and SM(B) -> score, for one grid setting.

    Replicate k's chains run at seed cfg.seed + 7919 k (BLQQ) and one more
    (SM(B)). Per-replicate failures are recorded and the run continues.
    """
    scenario = SimulationScenario(p=p, sparsity=s, rho_true=rho,
                                  base_seed=cfg.seed, replicates=replicates)
    rows = []
    for k in range(replicates):
        rep = gen_replicate(scenario, k)
        orders = EffectOrders(np.ones(p, dtype=int))
        for method in ("blqq", "smb"):
            rep_cfg = replace(cfg, seed=cfg.seed + 7919 * k + (0 if method == "blqq" else 1))
            try:
                if method == "smb":
                    chain = fit_sm_b(rep.train, orders, prior, rep_cfg)
                else:
                    chain = run_chain(rep.train, orders, prior, rep_cfg)
                report = evaluate_fit(chain, rep.test, rep.beta1_true, rep.beta2_true)
                rows.append((k, method, report, "ok"))
            except RuntimeError as exc:     # run_chain's numeric failure
                # a status is one CSV cell, and cells are never quoted
                rows.append((k, method, None, f"failed: {exc}".replace(",", ";")))
    return rows


def _aggregate(rows):
    """Per-method mean and standard error of each loss over the successful reps."""
    table = {}
    for method in ("blqq", "smb"):
        reports = [rep for (_, m, rep, status) in rows if m == method and rep is not None]
        stats = {}
        for fname in LOSS_FIELDS:
            vals = np.array([getattr(rep, fname) for rep in reports], dtype=float)
            if vals.size:
                mean = float(vals.mean())
                se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
            else:
                mean, se = float("nan"), float("nan")
            stats[fname] = (mean, se, int(vals.size))
        table[method] = stats
    return table


def cmd_replicate(args) -> int:
    raw_header = ["setting", "replicate", "method", "status", *LOSS_FIELDS, "fp", "fn"]
    raw_rows, agg_rows = [], []
    prior, cfg = _prior_config(args), _chain_config(args)
    for rho, p, s in _settings(args):
        name = _setting_name(rho, p, s)
        rows = run_setting(rho, p, s, args.replicates, prior, cfg)
        for k, method, report, status in rows:
            cells = [name, str(k), method, status]
            if report is None:
                cells += [""] * (len(raw_header) - len(cells))
            else:
                cells += [repr(float(getattr(report, f))) for f in LOSS_FIELDS]
                cells += [str(report.fp), str(report.fn)]
            raw_rows.append(cells)
        for method, stats in _aggregate(rows).items():
            for measure, (mean, se, n_ok) in stats.items():
                if n_ok < args.replicates:
                    measure += " (incomplete)"
                agg_rows.append([name, method, measure, repr(mean), repr(se), str(n_ok)])

    meta = bio.config_meta(cfg, prior, extra={"replicates": args.replicates})
    os.makedirs(args.out_dir, exist_ok=True)
    bio._write_table(os.path.join(args.out_dir, "losses_raw.csv"), raw_header, raw_rows,
                     meta=meta)
    bio._write_table(os.path.join(args.out_dir, "losses_summary.csv"),
                     ["setting", "method", "measure", "mean", "se", "n_ok"], agg_rows, meta=meta)
    return 0


def cmd_summarize(args) -> int:
    chain = bio.read_chain_csv(args.chain)
    summary = summarize_draws(chain.draws, chain.names)
    bio.write_summary_csv(args.out, summary,
                          meta={"chain": os.path.basename(args.chain)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="blqq",
                                 description="Joint Bayesian model for paired continuous/binary responses")
    sub = ap.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate simulation-study datasets")
    sim.add_argument("--rho", type=_float_in(-1.0, 1.0), default=0.85)
    sim.add_argument("--p", type=int, default=10)
    sim.add_argument("--sparsity", type=float, default=0.2)
    sim.add_argument("--n-train", type=int, default=100)
    sim.add_argument("--n-test", type=int, default=100)
    sim.add_argument("--sigma2", type=_float_in(0.0, math.inf), default=2.0)
    sim.add_argument("--replicates", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--all", action="store_true", help="write the full 12-setting grid")
    sim.add_argument("--fix-coefficients", action="store_true")
    sim.add_argument("--out-dir", required=True)
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit a model to a dataset file")
    fit.add_argument("--data", required=True)
    fit.add_argument("--model", choices=("blqq", "smb"), default="blqq")
    _add_chain_flags(fit)
    fit.add_argument("--out-dir", required=True)
    fit.set_defaults(func=cmd_fit)

    pred = sub.add_parser("predict", help="predict from a stored chain")
    pred.add_argument("--chain", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--out", required=True)
    pred.set_defaults(func=cmd_predict)

    repl = sub.add_parser("replicate", help="run the end-to-end replication loop")
    repl.add_argument("--rho", type=_float_in(-1.0, 1.0), default=0.85)
    repl.add_argument("--p", type=int, default=10)
    repl.add_argument("--sparsity", type=float, default=0.2)
    repl.add_argument("--replicates", type=int, default=10)
    repl.add_argument("--all", action="store_true")
    _add_chain_flags(repl)
    repl.add_argument("--out-dir", required=True)
    repl.set_defaults(func=cmd_replicate)

    summ = sub.add_parser("summarize", help="summarize a stored chain")
    summ.add_argument("--chain", required=True)
    summ.add_argument("--out", required=True)
    summ.set_defaults(func=cmd_summarize)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (bio.DatasetFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:         # run_chain's message names the numeric failure
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
