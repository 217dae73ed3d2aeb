"""Per-layer metrics of the traced run, from the spans of each traced operation
and the ChainOutput of each chain it ran."""
from __future__ import annotations

import statistics
from collections import Counter

import numpy as np

from tracing import check_calls

MH_TARGETS = ("sigma2", "rho", "r1", "r2")
TIMING_BUCKETS = ("u_sweep", "beta", "sigma2_rho", "hyper")
SPAN_SECONDS = {                        # metric -> span whose total time it reports
    "sampler.u_sweep.s": "sampler.u_sweep",
    "sampler.beta_fc.s": "sampler.beta_fc",
    "sampler.mh.s": "sampler.mh",
    "sampler.hyper.s": "sampler.hyper",
    "sampler.init.s": "sampler.init",
    "sampler.run_chain.s": "sampler.run_chain",
    "baselines.fit_sm_b.s": "baselines.fit_sm_b",
    "metrics.ess.s": "metrics.ess",
    "metrics.summarize_draws.s": "metrics.summarize_draws",
    "cli.predict_draws.s": "cli.predict_draws",
    "cli.evaluate_fit.s": "cli.evaluate_fit",
    "simulate.gen_replicate.s": "simulate.gen_replicate",
    "io.read.s": "io.read",
    "io.write.s": "io.write",
}


def chain_params(chain):
    """(name, draws) of every stored parameter that moved; rho of an smb chain is
    pinned at 0 and left out."""
    p = chain.beta1.shape[1]
    cols = [(f"beta1_{j + 1}", chain.beta1[:, j]) for j in range(p)]
    cols += [(f"beta2_{j + 1}", chain.beta2[:, j]) for j in range(p)]
    cols += [(name, getattr(chain, name))
             for name in ("sigma2", "rho", "tau1_sq", "tau2_sq", "r1", "r2")]
    return [(name, col) for name, col in cols if np.std(col) > 0]


def op_record(taken, wl, metrics_mod):
    """Check one traced operation's call counts and reduce it to sums."""
    spans, calls, io_bytes, chains = taken
    check_calls(calls, spans, *wl.expected_calls())
    rec = {"spans": spans, "calls": calls, "io_bytes": io_bytes,
           "accepted": Counter(), "proposed": Counter(), "timings": Counter(),
           "iterations": 0, "obs": 0, "loo_fallbacks": 0, "chains": []}
    for chain, seconds in chains:
        rec["iterations"] += chain.config.iterations
        rec["obs"] += chain.config.iterations * chain.final_u.shape[0]
        rec["loo_fallbacks"] += chain.loo_fallbacks
        rec["timings"].update(chain.timings)
        for t, (acc, prop) in chain.accept_counts.items():
            rec["accepted"][t] += acc
            rec["proposed"][t] += prop
        ess = {name: metrics_mod.effective_sample_size(col) for name, col in chain_params(chain)}
        worst = min(ess, key=ess.get)
        rec["chains"].append({"model": "smb" if chain.config.freeze_rho_at_zero else "joint",
                              "seconds": seconds, "min_ess": ess[worst], "argmin": worst,
                              "min_ess_per_s": ess[worst] / seconds})
    return rec


def summarize(records, wl):
    """Per-layer metrics {name: (value, unit)}, averaged per traced operation
    (rates and ratios from totals), plus detail for the report line."""
    n_ops = len(records)

    def span(name, field=1):
        return sum(r["spans"].get(name, [0, 0.0, 0.0])[field] for r in records)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    metrics = {m: (span(s) / n_ops, "s") for m, s in SPAN_SECONDS.items()}
    chain_s = span("sampler.run_chain")
    obs = sum(r["obs"] for r in records)
    metrics.update({
        "sampler.u_sweep.us_per_obs": (ratio(span("sampler.u_sweep"), obs, 1e6), "us"),
        "sampler.u_sweep.share_pct": (ratio(span("sampler.u_sweep"), chain_s, 100.0), "%"),
        "sampler.beta_fc.us_per_call": (ratio(span("sampler.beta_fc"), span("sampler.beta_fc", 0), 1e6), "us"),
        "sampler.beta_fc.share_pct": (ratio(span("sampler.beta_fc"), chain_s, 100.0), "%"),
        "sampler.beta_draw.us_per_call": (ratio(span("sampler.beta_draw"), span("sampler.beta_draw", 0), 1e6), "us"),
        "sampler.run_chain.self_s": (span("sampler.run_chain", 2) / n_ops, "s"),
        "sampler.iterations": (sum(r["iterations"] for r in records) / n_ops, "count"),
        "sampler.loo_fallbacks": (sum(r["loo_fallbacks"] for r in records) / n_ops, "count"),
    })
    for t in MH_TARGETS:
        acc = sum(r["accepted"][t] for r in records)
        metrics[f"sampler.mh.accept_ratio.{t}"] = (ratio(acc, sum(r["proposed"][t] for r in records)), "ratio")
    for b in TIMING_BUCKETS:
        metrics[f"sampler.timings.{b}"] = (sum(r["timings"][b] for r in records) / n_ops, "s")
    chains = [c for r in records for c in r["chains"]]
    metrics["sampler.min_ess_per_s"] = (
        statistics.median(c["min_ess_per_s"] for c in chains) if chains else 0.0, "1/s")
    for kind in ("read", "write"):
        mb = sum(r["io_bytes"].get(f"io.{kind}", 0) for r in records) / 1e6
        metrics[f"io.{kind}.mb"] = (mb / n_ops, "MB")
        metrics[f"io.{kind}.mb_per_s"] = (ratio(mb, span(f"io.{kind}")), "MB/s")
    extra = {"traced_ops": n_ops, "calls_per_op": records[0]["calls"], "chains": chains}
    return metrics, extra
