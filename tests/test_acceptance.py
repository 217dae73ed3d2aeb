"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line with the measured quantity and its pinned tolerance.

The slow criteria (4, 5, 6, 8, 9) run desk-scale replications of the
simulation study; the whole module targets well under an hour end to end.
"""
import math
import time

import numpy as np
import pytest
from scipy import stats

import oracles
from blqq import io as bio
from blqq.cli import _aggregate, main, run_setting
from blqq.distributions import sample_scaled_inv_chi2
from blqq.baselines import fit_sm_b
from blqq.metrics import effective_sample_size
from blqq.model import ChainConfig, Dataset, ParameterState, PriorConfig
from blqq.sampler import (
    SamplerWorkspace,
    compute_beta_full_conditional,
    init_state,
    run_chain,
)
from blqq.simulate import SimulationScenario, gen_birth_records, gen_replicate


def report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_loo_shortcut_oracle():
    # 50 random instances, every i, 1e-8 relative error, < 1 minute; the
    # (m_i, v_i) are the ones the sweep draws from, in closed form and with
    # every row forced to the fallback
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    rhos = [-0.9, 0.0, 0.5, 0.85]
    worst = {None: 0.0, 2.0: 0.0}
    for case in range(50):
        n = int(rng.integers(5, 31))
        p = int(rng.integers(1, 6))
        rho = rhos[case % 4]
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n) * 1.5
        u = rng.standard_normal(n)
        z = (u >= 0).astype(int)
        sigma2 = float(rng.uniform(0.3, 4.0))
        v1 = rng.uniform(0.2, 3.0, size=p)
        v2 = rng.uniform(0.2, 3.0, size=p)
        dense = np.array([oracles.dense_loo_moments(X, y, u, sigma2, rho, v1, v2, i)
                          for i in range(n)]).T
        for floor in worst:
            state = ParameterState(beta1=np.zeros(p), beta2=np.zeros(p),
                                   sigma2=sigma2, rho=rho, u=u.copy())
            ws = SamplerWorkspace.build(Dataset(X, y, z), state)
            fc = compute_beta_full_conditional(ws, sigma2, rho, v1, v2)
            fast = oracles.sweep_loo_moments(state, fc, ws, denom_floor=floor)
            err = np.abs(fast - dense) / np.maximum(np.abs(dense), 1.0)
            worst[floor] = max(worst[floor], float(err.max()))
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) < 1e-8 and elapsed < 60
    report(1, ok, f"max relative error {worst[None]:.2e} closed form / "
                  f"{worst[2.0]:.2e} fallback (tol 1e-8) over 50 instances, "
                  f"{elapsed:.1f}s (< 60s)")


def tiny_instance():
    rng = np.random.default_rng(7)
    n = 6
    X = rng.standard_normal((n, 1))
    beta1_t, beta2_t = 0.8, 1.2
    u = X[:, 0] * beta1_t + rng.standard_normal(n)
    y = X[:, 0] * beta2_t + rng.standard_normal(n)
    z = (u >= 0).astype(int)
    return Dataset(X, y, z)


def test_criterion_2_tiny_posterior_oracle():
    t0 = time.perf_counter()
    data = tiny_instance()
    prior = PriorConfig()
    # hyperparameters pinned so the prior variance is exactly 2.0 * 0.5 = 1.0
    hyper = dict(tau_sq=2.0, r=0.5)

    # part A: beta means vs 2-D grid quadrature at the chain's fixed (sigma2, rho)
    cfg = ChainConfig(iterations=42_000, burn_in=2_000, seed=11)
    state0, _ = init_state(data)
    with pytest.MonkeyPatch.context() as mp:
        oracles.pin_blocks(mp, "sigma2", "rho", "hyper", **hyper)
        out = run_chain(data, prior, cfg)
    grid = np.linspace(-6.0, 8.0, 241)
    g1, g2 = oracles.grid_quadrature_posterior_mean_beta(
        data.X, data.y, data.z, state0.sigma2, state0.rho, 1.0, 1.0, grid)
    err1 = abs(float(out.beta1.mean()) - g1)
    err2 = abs(float(out.beta2.mean()) - g2)

    # part B: rho draws vs 1-D quadrature with (beta, u, sigma2) fixed
    cfg_r = ChainConfig(iterations=42_000, burn_in=2_000, seed=12)
    state_r, _ = init_state(data)
    with pytest.MonkeyPatch.context() as mp:
        oracles.pin_blocks(mp, "u", "beta", "sigma2", "hyper",
                           beta=(state_r.beta1, state_r.beta2), **hyper)
        out_r = run_chain(data, prior, cfg_r)
    eta = state_r.u - data.X @ state_r.beta1
    phi = data.y - data.X @ state_r.beta2
    rgrid = np.linspace(-0.9995, 0.9995, 8001)
    s = math.sqrt(state_r.sigma2)
    logp = np.empty(rgrid.size)
    for k, r in enumerate(rgrid):
        cov = np.array([[1.0, r * s], [r * s, state_r.sigma2]])
        rv = stats.multivariate_normal(mean=[0.0, 0.0], cov=cov)
        logp[k] = float(np.sum(rv.logpdf(np.column_stack([eta, phi]))))
    w = np.exp(logp - logp.max())
    cdf_grid = np.cumsum(w)
    cdf_grid /= cdf_grid[-1]
    draws = np.sort(out_r.rho)
    cdf_at_draws = np.interp(draws, rgrid, cdf_grid)
    ecdf_hi = np.arange(1, draws.size + 1) / draws.size
    ecdf_lo = np.arange(0, draws.size) / draws.size
    ks = float(np.max(np.maximum(np.abs(cdf_at_draws - ecdf_hi),
                                 np.abs(cdf_at_draws - ecdf_lo))))

    elapsed = time.perf_counter() - t0
    ok = err1 < 0.05 and err2 < 0.05 and ks <= 0.02 and elapsed < 300
    report(2, ok, f"beta mean errors {err1:.4f}/{err2:.4f} (tol 0.05), "
                  f"rho KS {ks:.4f} (tol 0.02), {elapsed:.1f}s (< 300s)")


def test_criterion_3_rho_zero_decoupling():
    rep = gen_replicate(SimulationScenario(p=5, sparsity=0.2, rho_true=0.0,
                                           base_seed=31), 0)
    prior = PriorConfig()
    cfg_a = ChainConfig(iterations=4500, burn_in=500, seed=1)
    cfg_b = ChainConfig(iterations=4500, burn_in=500, seed=2, freeze_rho_at_zero=True)
    smb = fit_sm_b(rep.train, prior, cfg_a)
    frozen = run_chain(rep.train, prior, cfg_b)
    worst = 0.0
    for j in range(5):
        a = smb.beta2[:, j]
        b = frozen.beta2[:, j]
        se = math.sqrt(a.var(ddof=1) / effective_sample_size(a)
                       + b.var(ddof=1) / effective_sample_size(b))
        worst = max(worst, abs(a.mean() - b.mean()) / se)
    ok = worst < 3.0
    report(3, ok, f"max |beta2 mean difference| = {worst:.2f} MC standard errors "
                  f"(tol 3)")


# the chain of both Table 1 criteria, each replicate seeded from it as blqq replicate does
TABLE1_CHAIN = ChainConfig(iterations=5000, burn_in=500, seed=0)


def test_criterion_4_table1_rho085():
    t0 = time.perf_counter()
    rows = run_setting(0.85, 10, 0.2, 10, PriorConfig(), TABLE1_CHAIN)
    table = _aggregate(rows)
    n_ok = table["blqq"]["rmse"][2]
    rho_hat = table["blqq"]["rho_hat"][0]
    rmse_b, rmse_s = table["blqq"]["rmse"][0], table["smb"]["rmse"][0]
    me_b, me_s = table["blqq"]["me"][0], table["smb"]["me"][0]
    elapsed = time.perf_counter() - t0
    ok = (n_ok == 10 and 0.60 <= rho_hat <= 0.90
          and rmse_b < rmse_s and me_b < me_s and elapsed < 900)
    report(4, ok, f"mean rho_hat {rho_hat:.3f} (in [0.60, 0.90]), "
                  f"RMSE {rmse_b:.3f} vs {rmse_s:.3f}, ME {me_b:.3f} vs {me_s:.3f} "
                  f"(joint must win both), {elapsed:.0f}s (< 900s)")


def test_criterion_5_table1_rho_neg05():
    rows = run_setting(-0.5, 10, 0.2, 10, PriorConfig(), TABLE1_CHAIN)
    table = _aggregate(rows)
    neg = sum(1 for (_, m, rep, _) in rows
              if m == "blqq" and rep is not None and rep.rho_hat < 0)
    me_b, me_s = table["blqq"]["me"][0], table["smb"]["me"][0]
    ok = neg >= 9 and me_b < me_s
    report(5, ok, f"rho_hat negative in {neg}/10 replicates (need >= 9), "
                  f"ME {me_b:.3f} vs {me_s:.3f} (joint must win)")


def test_criterion_6_null_correlation_coverage():
    scenario = SimulationScenario(p=10, sparsity=0.2, rho_true=0.0, base_seed=0)
    prior = PriorConfig()
    covered = 0
    for k in range(10):
        rep = gen_replicate(scenario, k)
        cfg = ChainConfig(iterations=5000, burn_in=500, seed=300 + k)
        out = run_chain(rep.train, prior, cfg)
        lo, hi = np.quantile(out.rho, [0.025, 0.975])
        if lo <= 0.0 <= hi:
            covered += 1
    ok = covered >= 8
    report(6, ok, f"95% interval for rho covers 0 in {covered}/10 replicates "
                  f"(need >= 8)")


def test_criterion_7_distribution_primitives():
    n = 1_000_000
    # truncated normal, a truncation point inside the bulk
    mean, var = 0.5, 2.0
    draws = oracles.halfline_draws(mean, var, True, np.random.default_rng(70), n)
    ref = stats.truncnorm(-mean / math.sqrt(var), np.inf, loc=mean, scale=math.sqrt(var))
    m_t, v_t = (float(x) for x in ref.stats(moments="mv"))
    dm = abs(draws.mean() - m_t) / math.sqrt(v_t / n)
    dv = abs(draws.var(ddof=1) - v_t) / (v_t * math.sqrt(2.0 / (n - 1)))
    ks_t = stats.kstest(draws, ref.cdf).statistic

    dof, scale = 8.0, 1.7
    ichi = sample_scaled_inv_chi2(dof, scale, np.random.default_rng(71), size=n)
    m_i = dof * scale / (dof - 2.0)
    v_i = 2.0 * dof**2 * scale**2 / ((dof - 2.0) ** 2 * (dof - 4.0))
    dm_i = abs(ichi.mean() - m_i) / math.sqrt(v_i / n)
    # KS against the transformation oracle's exact cdf
    ks_i = stats.kstest(ichi, lambda x: 1.0 - stats.chi2.cdf(dof * scale / x, dof)).statistic

    ok = dm < 3 and dv < 3 and dm_i < 3 and ks_t <= 0.002 and ks_i <= 0.002
    report(7, ok, f"moment deviations {dm:.2f}/{dv:.2f}/{dm_i:.2f} MC SEs (tol 3), "
                  f"KS {ks_t:.4f}/{ks_i:.4f} (tol 0.002) at 1e6 draws")


def test_criterion_8_mh_health_grid():
    prior = PriorConfig()
    bad = []
    for rho in (0.0, 0.85, -0.5):
        for p in (10, 30):
            for s in (0.2, 0.5):
                rep = gen_replicate(SimulationScenario(p=p, sparsity=s,
                                                       rho_true=rho,
                                                       base_seed=800), 0)
                cfg = ChainConfig(iterations=1500, burn_in=500, seed=801)
                out = run_chain(rep.train, prior, cfg)
                for target, rate in out.acceptance.items():
                    if not 0.1 < rate < 0.7:
                        bad.append(f"rho={rho},p={p},s={s}:{target}={rate:.2f}")
    ok = not bad
    report(8, ok, "all acceptance rates in (0.1, 0.7) across the 12-setting grid"
           if ok else f"out-of-band rates: {'; '.join(bad)}")


def test_criterion_9_case_study_schema():
    # real data are restricted; the synthetic schema-matched generator stands in
    full = gen_birth_records(seed=90, n=1000, rho=-0.85)
    prior = PriorConfig()
    rho_hats = []
    for split in range(5):
        perm = np.random.default_rng(900 + split).permutation(1000)
        tr = perm[:100]
        Xtr = full.X[tr]
        mu, sd = Xtr.mean(axis=0), Xtr.std(axis=0)
        sd = np.where(sd > 0, sd, 1.0)
        ymu, ysd = full.y[tr].mean(), full.y[tr].std()
        train = Dataset((Xtr - mu) / sd, (full.y[tr] - ymu) / ysd, full.z[tr],
                        columns=full.columns)
        cfg = ChainConfig(iterations=5000, burn_in=500, seed=910 + split)
        out = run_chain(train, prior, cfg)
        rho_hats.append(float(out.rho.mean()))
    all_neg = all(r < 0 for r in rho_hats)
    mean_err = abs(np.mean(rho_hats) - (-0.85))
    ok = all_neg and mean_err < 0.15
    report(9, ok, f"rho_hat per split {[round(r, 3) for r in rho_hats]} "
                  f"(all negative: {all_neg}), mean within {mean_err:.3f} of "
                  f"-0.85 (tol 0.15)")


def test_criterion_10_byte_identical_outputs(tmp_path):
    mismatched = []
    sim_args = ["simulate", "--p", "4", "--sparsity", "0.25", "--replicates", "2",
                "--seed", "5"]
    fit_args = None
    for tag in ("a", "b"):
        d = tmp_path / tag
        assert main(sim_args + ["--out-dir", str(d / "sims")]) == 0
        train = d / "sims" / "rho0.85_p4_s0.25" / "rep0_train.csv"
        assert main(["fit", "--data", str(train), "--iterations", "400",
                     "--burn-in", "100", "--seed", "6",
                     "--out-dir", str(d / "fit")]) == 0
        assert main(["predict", "--chain", str(d / "fit" / "chain.csv"),
                     "--data", str(d / "sims" / "rho0.85_p4_s0.25" / "rep0_test.csv"),
                     "--out", str(d / "pred.csv")]) == 0
        assert main(["replicate", "--p", "4", "--sparsity", "0.25",
                     "--replicates", "1", "--seed", "7", "--iterations", "300",
                     "--burn-in", "100", "--out-dir", str(d / "rep")]) == 0
    for rel in ("sims/rho0.85_p4_s0.25/rep0_train.csv",
                "sims/rho0.85_p4_s0.25/rep1_truth.csv",
                "fit/chain.csv", "fit/summary.csv", "fit/diagnostics.csv",
                "fit/hist_rho.csv", "pred.csv",
                "rep/losses_raw.csv", "rep/losses_summary.csv"):
        if (tmp_path / "a" / rel).read_bytes() != (tmp_path / "b" / rel).read_bytes():
            mismatched.append(rel)
    ok = not mismatched
    report(10, ok, "all rerun outputs byte-identical across simulate/fit/predict/replicate"
           if ok else f"mismatched files: {', '.join(mismatched)}")
