"""The three benchmark workloads: inputs, operations and output checks.

Each workload makes its inputs from the workload seed with its own numpy code
(the program's simulator is not used to build inputs), runs operations
through ``blqq.cli.main`` in-process, and checks every output it can
recompute. An operation is a fixed sequence of CLI commands; every command
counts as one attempt, and it fails on a nonzero exit code, a ``failed:`` row
in ``losses_raw.csv`` or a failed output check.
"""
from __future__ import annotations

import math
import os
import shutil
import traceback

import numpy as np
from scipy import special

RHO_TRUE = 0.85
SIGMA2_TRUE = 2.0
SPARSITY = 0.2
# At n=1000 the posterior-mean rho itself varies with the data: 0.73-0.89
# over 16 seeds of 600 stored draws. The tolerance catches a sign flip or a
# chain stuck near 0, not a small bias.
RHO_TOL = 0.25
PRED_RTOL = 1e-9
PRED_ATOL = 1e-12


# --- input generation --------------------------------------------------------

def simulate_dataset(rng, n, p):
    """AR(1) predictors (0.5^|i-j|), sparse |N(3,1)| effects with random signs,
    and (u, y) bivariate normal with correlation RHO_TRUE; z = 1 iff u >= 0."""
    idx = np.arange(p)
    X = rng.standard_normal((n, p)) @ np.linalg.cholesky(0.5 ** np.abs(idx[:, None] - idx)).T
    k = int(round(SPARSITY * p))
    betas = []
    for _ in range(2):
        beta = np.zeros(p)
        beta[rng.choice(p, size=k, replace=False)] = \
            rng.choice([-1.0, 1.0], size=k) * np.abs(rng.normal(3.0, 1.0, size=k))
        betas.append(beta)
    s = math.sqrt(SIGMA2_TRUE)
    cov = np.array([[1.0, RHO_TRUE * s], [RHO_TRUE * s, SIGMA2_TRUE]])
    eps = rng.standard_normal((n, 2)) @ np.linalg.cholesky(cov).T
    u = X @ betas[0] + eps[:, 0]
    y = X @ betas[1] + eps[:, 1]
    return X, y, (u >= 0).astype(int), betas


def write_csv(path, header, rows):
    """Rows as shortest round-trip floats, so the program reads back exactly
    the values the benchmark holds."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) for v in row) + "\n")


def write_dataset(path, X, y, z):
    p = X.shape[1]
    rows = (list(X[i].tolist()) + [float(y[i]), int(z[i])] for i in range(X.shape[0]))
    write_csv(path, [f"x{j + 1}" for j in range(p)] + ["y", "z"], rows)


def read_table(path):
    """(header, float matrix) of a CSV written by the program; '#' lines skipped."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])


def chain_columns(p):
    return ([f"beta1_{j + 1}" for j in range(p)] + [f"beta2_{j + 1}" for j in range(p)]
            + ["sigma2", "rho", "tau1_sq", "tau2_sq", "r1", "r2"])


def out_of_support(draws, p):
    """Names of the chain columns with a non-finite draw or one outside its support."""
    bad = [name for name, col in zip(chain_columns(p), draws.T) if not np.all(np.isfinite(col))]
    positive = draws[:, 2 * p:][:, [0, 2, 3]]        # sigma2, tau1_sq, tau2_sq
    if np.any(positive <= 0):
        bad.append("sigma2/tau_sq <= 0")
    if np.any(np.abs(draws[:, 2 * p + 1]) >= 1):
        bad.append("|rho| >= 1")
    r = draws[:, 2 * p + 4:]
    if np.any((r <= 0) | (r >= 1)):
        bad.append("r outside (0, 1)")
    return bad


# --- workloads ---------------------------------------------------------------

class Workload:
    """Base for the sampler workloads, whose operation is one CLI command;
    subclasses set ``name`` and implement prepare, argv and check."""

    def __init__(self, cli, seed):
        self.cli = cli
        self.seed = seed
        self.errors = []
        self.notes = {}                 # per-workload facts for the report line

    def warm_up(self, out):
        """Run the operation's commands once, untimed and unchecked, so lazy
        set-up inside the process is done before timing. Samplers run a
        30-iteration chain; the full length adds nothing to the warm-up."""
        self.run_command(self.argv(0, out, 30, 10))

    def run_op(self, k, out):
        """Run operation k into directory out and check its outputs.
        Returns (commands attempted, commands failed)."""
        code = self.run_command(self.argv(k, out, self.ITERATIONS, self.BURN_IN))
        ok = code == 0 and self.checked(self.check, out)
        return 1, 0 if ok else 1

    def run_command(self, argv):
        """Run one CLI command in-process; returns its exit code (1 on an
        exception the CLI let through, which is recorded)."""
        try:
            return self.cli.main([str(a) for a in argv])
        except Exception:
            self.errors.append(traceback.format_exc(limit=3))
            return 1

    def checked(self, check, *args):
        """Run one output check; an exception while reading the output fails it."""
        try:
            return check(*args)
        except Exception:
            self.errors.append(traceback.format_exc(limit=3))
            return False


class FitTall(Workload):
    """`blqq fit` of the joint model on one n=1000, p=10 train file."""

    name = "fit_tall"
    N, P = 1000, 10
    ITERATIONS, BURN_IN = 700, 100

    def prepare(self, work):
        rng = np.random.default_rng([self.seed, 1])
        X, y, z, _ = simulate_dataset(rng, self.N, self.P)
        self.train = os.path.join(work, "train.csv")
        write_dataset(self.train, X, y, z)

    def work_units(self):
        return self.ITERATIONS          # sampler iterations per operation

    def expected_calls(self):
        it = self.ITERATIONS
        return {"cli.run_chain": 1, "sampler.init_state": 1,
                "sampler.compute_beta_full_conditional": it, "sampler.sample_u_sweep": it,
                "sampler.sample_beta": it, "sampler.sample_sigma2_mh": it,
                "sampler.sample_rho_mh": it, "sampler.sample_tau2": 2 * it,
                "sampler.sample_r_mh": 2 * it, "cli.summarize_draws": 1,
                "cli.effective_sample_size": 2 * self.P + 6}, {"io.read": 1, "io.write": 1}

    def argv(self, k, out, iterations, burn_in):
        return ["fit", "--data", self.train, "--iterations", iterations, "--burn-in", burn_in,
                "--seed", 1000 * self.seed + k, "--out-dir", out]

    def check(self, out):
        p = self.P
        header, arr = read_table(os.path.join(out, "chain.csv"))
        draws = arr[:, 1:]
        problems = []
        if header[1:] != chain_columns(p):
            problems.append(f"chain.csv columns {header}")
        elif arr.shape[0] != self.ITERATIONS - self.BURN_IN:
            problems.append(f"chain.csv has {arr.shape[0]} rows")
        else:
            problems += out_of_support(draws, p)
            rho_mean = float(draws[:, 2 * p + 1].mean())
            self.notes.setdefault("posterior_mean_rho", []).append(rho_mean)
            if abs(rho_mean - RHO_TRUE) > RHO_TOL:
                problems.append(f"posterior-mean rho {rho_mean:.4f} not within {RHO_TOL} of {RHO_TRUE}")
        with open(os.path.join(out, "diagnostics.csv")) as fh:
            ess = [ln for ln in fh if ln.startswith("ess,")]
        if len(ess) != 2 * p + 6:
            problems.append(f"diagnostics.csv has {len(ess)} ess rows")
        self.errors += [f"{self.name}: {msg}" for msg in problems]
        return not problems


class ReplicateWide(Workload):
    """`blqq replicate` at p=30 (n fixed at 100): a joint and an smb chain per
    replicate, then generation and scoring of the test split."""

    name = "replicate_wide"
    P, REPLICATES = 30, 1
    ITERATIONS, BURN_IN = 800, 200

    def prepare(self, work):
        pass                            # the command generates its own data from --seed

    def work_units(self):
        return 2 * self.REPLICATES * self.ITERATIONS

    def expected_calls(self):
        r, it = self.REPLICATES, self.ITERATIONS
        return {"cli.run_chain": r, "cli.fit_sm_b": r, "baselines.run_chain": r,
                "sampler.init_state": 2 * r,
                "sampler.compute_beta_full_conditional": 2 * r * it,
                "sampler.sample_u_sweep": 2 * r * it, "sampler.sample_beta": 2 * r * it,
                "sampler.sample_sigma2_mh": 2 * r * it, "sampler.sample_rho_mh": r * it,
                "sampler.sample_tau2": 4 * r * it, "sampler.sample_r_mh": 4 * r * it,
                "cli.gen_replicate": r, "cli.evaluate_fit": 2 * r,
                "cli.predict_draws": 2 * r, "cli.summarize_draws": 2 * r}, {}

    def argv(self, k, out, iterations, burn_in):
        return ["replicate", "--p", self.P, "--sparsity", SPARSITY, "--rho", RHO_TRUE,
                "--replicates", self.REPLICATES, "--iterations", iterations,
                "--burn-in", burn_in, "--seed", 1000 * self.seed + k, "--out-dir", out]

    def check(self, out):
        problems = []
        with open(os.path.join(out, "losses_raw.csv")) as fh:
            rows = [ln.rstrip("\n").split(",") for ln in fh if not ln.startswith("#")][1:]
        if len(rows) != 2 * self.REPLICATES:
            problems.append(f"losses_raw.csv has {len(rows)} rows")
        for row in rows:
            if row[3] != "ok":
                problems.append(f"replicate {row[1]} {row[2]}: {row[3]}")
            elif not all(math.isfinite(float(v)) for v in row[4:]):
                problems.append(f"replicate {row[1]} {row[2]}: non-finite loss {row[4:]}")
        self.errors += [f"{self.name}: {msg}" for msg in problems]
        return not problems


class Posterior(Workload):
    """No sampling: `blqq simulate`, then `blqq predict` and `blqq summarize` on
    a stored chain of 10k draws at p=30 against a 1000-row test file."""

    name = "posterior"
    P, DRAWS, TEST_ROWS = 30, 10_000, 1000
    SIM_ROWS = 1000

    def prepare(self, work):
        rng = np.random.default_rng([self.seed, 3])
        X, y, z, (b1, b2) = simulate_dataset(rng, self.TEST_ROWS, self.P)
        self.test = os.path.join(work, "test.csv")
        write_dataset(self.test, X, y, z)
        S, p = self.DRAWS, self.P
        draws = np.hstack([
            b1 + 0.2 * rng.standard_normal((S, p)),
            b2 + 0.2 * rng.standard_normal((S, p)),
            SIGMA2_TRUE * np.exp(0.1 * rng.standard_normal((S, 1))),
            np.tanh(math.atanh(RHO_TRUE) + 0.1 * rng.standard_normal((S, 1))),
            np.exp(rng.standard_normal((S, 2))),
            special.expit(rng.standard_normal((S, 2))),
        ])
        self.chain = os.path.join(work, "chain.csv")
        write_csv(self.chain, ["iteration"] + chain_columns(p),
                  ([i] + draws[i].tolist() for i in range(S)))
        self.inputs = (X, y, z, draws)
        self.expected = None

    def warm_up(self, out):
        self.run_op(0, out)
        self.errors.clear()

    def work_units(self):
        return self.TEST_ROWS * self.DRAWS  # prediction cells: test rows x stored draws

    def expected_calls(self):
        return {"cli.gen_replicate": 1, "cli.predict_draws": 1,
                "cli.summarize_draws": 1}, {"io.read": 3, "io.write": 3}

    def run_op(self, k, out):
        os.makedirs(out, exist_ok=True)
        pred, summ = os.path.join(out, "pred.csv"), os.path.join(out, "summary.csv")
        codes = [
            self.run_command(["simulate", "--p", self.P, "--rho", RHO_TRUE, "--sparsity", SPARSITY,
                              "--n-train", self.SIM_ROWS, "--n-test", self.SIM_ROWS,
                              "--replicates", 1, "--seed", 1000 * self.seed + k,
                              "--out-dir", os.path.join(out, "sims")]),
            self.run_command(["predict", "--chain", self.chain, "--data", self.test, "--out", pred]),
            self.run_command(["summarize", "--chain", self.chain, "--out", summ]),
        ]
        checks = (self.check_sims, self.check_predictions, self.check_summary)
        args = (os.path.join(out, "sims"), pred, summ)
        failed = sum(1 for code, check, a in zip(codes, checks, args)
                     if code != 0 or not self.checked(check, a))
        return 3, failed

    def _expect(self):
        """Closed-form predictions and summaries from the generated draws,
        accumulated over blocks of draws to keep memory small."""
        if self.expected is None:
            X, y, z, draws = self.inputs
            p, S = self.P, self.DRAWS
            ysum = np.zeros(X.shape[0])
            psum = np.zeros(X.shape[0])
            for lo in range(0, S, 1000):
                d = draws[lo:lo + 1000]
                lin1, lin2 = X @ d[:, :p].T, X @ d[:, p:2 * p].T
                sigma, rho = np.sqrt(d[:, 2 * p]), d[:, 2 * p + 1]
                score = (lin1 + rho / sigma * (y[:, None] - lin2)) / np.sqrt(1 - rho * rho)
                psum += special.ndtr(score).sum(axis=1)
                # E[eps1 | z] = phi(a)/Phi(a) with a = lin1 for z = 1, -phi(a)/Phi(-a) for z = 0.
                a = np.where(z[:, None] == 1, lin1, -lin1)
                mills = np.exp(-0.5 * a * a - 0.5 * math.log(2 * math.pi) - special.log_ndtr(a))
                ysum += (lin2 + rho * sigma * np.where(z[:, None] == 1, mills, -mills)).sum(axis=1)
            srt = np.sort(draws, axis=0)

            def quantile(q):
                h = (S - 1) * q
                j = int(math.floor(h))
                return srt[j] + (h - j) * (srt[j + 1] - srt[j])

            self.expected = {
                "y_hat": ysum / S, "p_z1": psum / S,
                "mean": draws.mean(axis=0), "sd": draws.std(axis=0, ddof=1),
                "q2.5": quantile(0.025), "q97.5": quantile(0.975),
            }
        return self.expected

    def _compare(self, what, got, want):
        if got.shape != want.shape or not np.allclose(got, want, rtol=PRED_RTOL, atol=PRED_ATOL):
            worst = float(np.max(np.abs(got - want))) if got.shape == want.shape else float("nan")
            self.errors.append(f"{self.name}: {what} differs from the recomputation (max abs {worst:.3g})")
            return False
        return True

    def check_sims(self, sims):
        files = [os.path.join(root, f) for root, _, fs in os.walk(sims) for f in fs]
        rows = {os.path.basename(f): len(read_table(f)[1]) for f in files if f.endswith("train.csv")
                or f.endswith("test.csv")}
        if rows != {"rep0_train.csv": self.SIM_ROWS, "rep0_test.csv": self.SIM_ROWS}:
            self.errors.append(f"{self.name}: simulate wrote {rows}")
            return False
        return True

    def check_predictions(self, path):
        exp = self._expect()
        header, arr = read_table(path)
        col = {name: arr[:, k] for k, name in enumerate(header)}
        ok = self._compare("y_hat", col["y_hat"], exp["y_hat"])
        ok &= self._compare("p_z1", col["p_z1"], exp["p_z1"])
        # z_hat is the 0.5 threshold of p_z1; rows within the tolerance of 0.5 may go either way.
        decided = np.abs(exp["p_z1"] - 0.5) > PRED_RTOL
        if not np.array_equal(col["z_hat"][decided], (exp["p_z1"][decided] >= 0.5).astype(float)):
            self.errors.append(f"{self.name}: z_hat disagrees with p_z1 >= 0.5")
            ok = False
        return ok

    def check_summary(self, path):
        exp = self._expect()
        with open(path) as fh:
            lines = [ln.rstrip("\n").split(",") for ln in fh if not ln.startswith("#")]
        names = [row[0] for row in lines[1:]]
        if lines[0] != ["parameter", "mean", "sd", "q2.5", "q97.5"] or names != chain_columns(self.P):
            self.errors.append(f"{self.name}: summary layout {lines[0]} / {names[:3]}...")
            return False
        vals = np.array([[float(c) for c in row[1:]] for row in lines[1:]])
        return all([self._compare(f"summary {key}", vals[:, k], exp[key])
                    for k, key in enumerate(("mean", "sd", "q2.5", "q97.5"))])


WORKLOADS = {cls.name: cls for cls in (FitTall, ReplicateWide, Posterior)}


def clear(path):
    shutil.rmtree(path, ignore_errors=True)
