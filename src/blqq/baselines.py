"""Separate-model Bayesian baseline: probit for z and linear regression for y,
fit independently by freezing the cross-response correlation at zero.

This reuses the joint sampler verbatim with rho pinned to 0 and never
moved, which factorizes the chain exactly into a
latent-variable probit Gibbs sampler for (beta1, u) and a linear-model
sampler for (beta2, sigma^2). Both halves keep the same hierarchical
N(0, tau^2 R) priors as the joint model so comparisons isolate the effect of
joint versus separate modeling.
"""
from __future__ import annotations

from dataclasses import replace

from .model import ChainConfig, Dataset, EffectOrders, PriorConfig
from .sampler import ChainOutput, run_chain


def fit_sm_b(data: Dataset, orders: EffectOrders, prior: PriorConfig,
             cfg: ChainConfig) -> ChainOutput:
    """Fit the separate-model baseline on the same machinery as the joint fit;
    the returned rho draws are identically 0."""
    cfg_sep = replace(cfg, freeze_rho_at_zero=True)
    return run_chain(data, orders, prior, cfg_sep)
