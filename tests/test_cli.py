import contextlib
import csv
import io
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blqq.cli as cli
import blqq.sampler as sampler
from blqq import io as bio
from blqq.cli import main
from blqq.model import Dataset, Draws, EffectOrders
from blqq.simulate import SimulationScenario, gen_replicate

FAST = ["--iterations", "200", "--burn-in", "50"]


class _TinyChain:
    def __init__(self, beta1, beta2, rho, sigma2):
        self.beta1 = np.atleast_2d(beta1)
        self.beta2 = np.atleast_2d(beta2)
        self.rho = np.asarray(rho, dtype=float)
        self.sigma2 = np.asarray(sigma2, dtype=float)


def test_predict_draws_conditional_on_y():
    # single draw, p = 1: P(z=1|y,x) must be Phi of the probit score
    from scipy.stats import norm
    chain = _TinyChain([[0.5]], [[1.0]], [0.6], [4.0])
    X = np.array([[1.0]])
    _, p_cond, _ = cli.predict_draws(chain, X, y=np.array([3.0]))
    s = (0.5 + (0.6 / 2.0) * (3.0 - 1.0)) / np.sqrt(1 - 0.36)
    assert p_cond[0] == pytest.approx(norm.cdf(s), rel=1e-12)
    _, p_marg, _ = cli.predict_draws(chain, X)
    assert p_marg[0] == pytest.approx(norm.cdf(0.5), rel=1e-12)


def test_predict_draws_conditional_on_z():
    from scipy.stats import norm
    chain = _TinyChain([[0.5]], [[1.0]], [0.6], [4.0])
    X = np.array([[1.0], [1.0]])
    y_hat, _, _ = cli.predict_draws(chain, X, z=np.array([1, 0]))
    lam1 = norm.pdf(0.5) / norm.cdf(0.5)
    lam0 = -norm.pdf(0.5) / norm.cdf(-0.5)
    assert y_hat[0] == pytest.approx(1.0 + 0.6 * 2.0 * lam1, rel=1e-12)
    assert y_hat[1] == pytest.approx(1.0 + 0.6 * 2.0 * lam0, rel=1e-12)
    # z = 1 pulls the prediction up, z = 0 pulls it down
    assert y_hat[0] > 1.0 > y_hat[1]


def test_predict_draws_rho_zero_reduces_to_marginal():
    rng = np.random.default_rng(0)
    chain = _TinyChain(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)),
                       np.zeros(5), np.full(5, 2.0))
    X = rng.standard_normal((4, 2))
    y = rng.standard_normal(4)
    z = np.array([0, 1, 1, 0])
    marg = cli.predict_draws(chain, X)
    cond = cli.predict_draws(chain, X, y=y, z=z)
    assert np.allclose(marg[0], cond[0])
    assert np.allclose(marg[1], cond[1])


def run(argv):
    return main([str(a) for a in argv])


def test_simulate_writes_replicates(tmp_path):
    out = tmp_path / "sims"
    assert run(["simulate", "--rho", "0.85", "--p", "5", "--sparsity", "0.2",
                "--replicates", "2", "--seed", "3", "--out-dir", out]) == 0
    setting = out / "rho0.85_p5_s0.2"
    for k in (0, 1):
        for part in ("train", "test", "truth"):
            assert (setting / f"rep{k}_{part}.csv").exists()
    data = bio.parse_dataset_csv(setting / "rep0_train.csv")
    assert data.X.shape == (100, 5)
    rep = gen_replicate(SimulationScenario(p=5, sparsity=0.2, rho_true=0.85, base_seed=3), 0)
    truth = setting / "rep0_truth.csv"
    lines = truth.read_text().splitlines()
    head = lines.index("index,beta1_true,beta2_true")
    assert lines[head - 2:head] == ["#rho_true: 0.85", "#sigma2_true: 2.0"]
    keys = [ln.split(":", 1)[0] for ln in lines[:head]]
    assert len(keys) == len(set(keys)), keys
    table = np.loadtxt(truth, delimiter=",", skiprows=head + 1)
    assert np.array_equal(table[:, 1], rep.beta1_true)
    assert np.array_equal(table[:, 2], rep.beta2_true)
    assert np.count_nonzero(rep.beta1_true) == 1


def test_simulate_rejects_bad_sparsity(tmp_path, capsys):
    assert run(["simulate", "--p", "10", "--sparsity", "0.15",
                "--out-dir", tmp_path / "x"]) == 2
    assert "error:" in capsys.readouterr().err


PROVENANCE = ["seed", "iterations", "burn_in", "thin", "nu", "delta_sq", "beta_a", "beta_b"]


def fit_once(tmp_path, name, extra=()):
    data_dir = tmp_path / "sims"
    if not data_dir.exists():
        run(["simulate", "--p", "4", "--sparsity", "0.25", "--replicates", "1",
             "--n-train", "60", "--out-dir", data_dir])
    train = data_dir / "rho0.85_p4_s0.25" / "rep0_train.csv"
    out = tmp_path / name
    code = run(["fit", "--data", train, "--out-dir", out, "--seed", "5",
                *FAST, *extra])
    return code, out, train


def test_fit_outputs(tmp_path):
    code, out, _ = fit_once(tmp_path, "fit")
    assert code == 0
    for f in ("chain.csv", "summary.csv", "diagnostics.csv",
              "hist_rho.csv", "hist_sigma2.csv", "hist_beta1_1.csv"):
        assert (out / f).exists(), f
    chain = bio.read_chain_csv(out / "chain.csv")
    assert chain.beta1.shape == (150, 4)
    assert np.all(np.abs(chain.rho) < 1)
    # the run facts: the final adapted MH steps and the LOO fallback count
    rows = [ln.split(",") for ln in (out / "diagnostics.csv").read_text().splitlines()
            if not ln.startswith("#")]
    steps = {r[1]: float(r[3]) for r in rows if r[0] == "mh_step"}
    assert set(steps) == {"sigma2", "rho", "r1", "r2"}
    assert all(1e-3 <= v <= 80.0 for v in steps.values())
    assert [r[1:] for r in rows if r[0] == "loo_fallbacks"] == [["u", "", "0"]]
    # every output names the chain's configuration and prior constants
    for f in ("chain.csv", "summary.csv", "diagnostics.csv", "hist_rho.csv"):
        keys = [ln[1:].split(":", 1)[0] for ln in (out / f).read_text().splitlines()
                if ln.startswith("#")]
        assert keys == [*PROVENANCE, "model", "data"], f


def test_fit_smb_pins_rho(tmp_path):
    code, out, _ = fit_once(tmp_path, "smb", extra=["--model", "smb"])
    assert code == 0
    chain = bio.read_chain_csv(out / "chain.csv")
    assert np.all(chain.rho == 0.0)


def test_fit_byte_identical_rerun(tmp_path):
    _, out1, _ = fit_once(tmp_path, "fit1")
    _, out2, _ = fit_once(tmp_path, "fit2")
    for f in sorted(os.listdir(out1)):
        assert (out1 / f).read_bytes() == (out2 / f).read_bytes(), f


def test_predict_and_summarize(tmp_path):
    _, out, train = fit_once(tmp_path, "fit")
    test = train.parent / "rep0_test.csv"
    pred = tmp_path / "pred.csv"
    assert run(["predict", "--chain", out / "chain.csv", "--data", test,
                "--out", pred]) == 0
    text = pred.read_text()
    assert "#rmse:" in text and "#me:" in text
    n_rows = sum(1 for l in text.splitlines()
                 if l and not l.startswith("#") and not l.startswith("row,"))
    assert n_rows == 100

    summ = tmp_path / "summ.csv"
    assert run(["summarize", "--chain", out / "chain.csv", "--out", summ]) == 0
    lines = summ.read_text().strip().splitlines()
    names = [l.split(",")[0] for l in lines if not l.startswith("#")]
    assert "rho" in names and "beta2_4" in names


def data_rows(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def test_summarize_reproduces_fit_summary(tmp_path):
    _, out, _ = fit_once(tmp_path, "fit")
    summ = tmp_path / "summ.csv"
    assert run(["summarize", "--chain", out / "chain.csv", "--out", summ]) == 0
    assert data_rows(summ) == data_rows(out / "summary.csv")


@pytest.mark.parametrize("keep", [("y",), ("z",), ()])
def test_predict_with_some_responses(tmp_path, keep):
    _, out, train = fit_once(tmp_path, "fit")
    rows = [l.split(",") for l in data_rows(train.parent / "rep0_test.csv")]
    cols = [k for k, name in enumerate(rows[0]) if name not in ("y", "z") or name in keep]
    data = tmp_path / "data.csv"
    data.write_text("".join(",".join(r[k] for k in cols) + "\n" for r in rows))
    pred = tmp_path / "pred.csv"
    assert run(["predict", "--chain", out / "chain.csv", "--data", data, "--out", pred]) == 0
    lines = data_rows(pred)
    assert lines[0] == ",".join(["row", "y_hat", "p_z1", "z_hat"] + [f"{r}_true" for r in keep])
    assert len(lines) == 1 + 100 and all(len(l.split(",")) == 4 + len(keep) for l in lines)
    losses = {"y": "#rmse:", "z": "#me:"}
    for r, tag in losses.items():
        assert (tag in pred.read_text()) == (r in keep)


@pytest.mark.parametrize("drop_rows, drop_column, bad_cells, message", [
    pytest.param(True, None, {}, "no draws", id="True-None-no draws"),
    pytest.param(False, "rho", {}, "lacks column.*rho", id="False-rho-lacks column.*rho"),
    pytest.param(False, None, {"rho": "abc"}, "line 2: non-numeric value 'abc' in column 'rho'",
                 id="False-None-bad rho cell"),
    pytest.param(False, None, {"rho": "1.0", "sigma2": "-2.0"},
                 r"draw 1: column 'sigma2' holds -2\.0, outside \(0\.0, inf\)",
                 id="False-None-draw outside support"),
    pytest.param(False, None, {"rho": ""}, "line 2: non-numeric value '' in column 'rho'",
                 id="empty cell"),
    pytest.param(False, None, {"r2": "0.5,"}, r"line 2: expected \d+ cells, found \d+",
                 id="trailing comma"),
    pytest.param(False, None, {"rho": "0.5,0.5,0.5"}, r"line 2: expected \d+ cells, found \d+",
                 id="row too long"),
    pytest.param(False, None, {"beta1_1": "1_0"},
                 "line 2: non-numeric value '1_0' in column 'beta1_1'", id="underscore digits"),
    pytest.param(False, None, {"iteration": "abc"},
                 "line 2: non-numeric value 'abc' in column 'iteration'",
                 id="non-numeric non-draw column")])
def test_malformed_chain_exit_2(tmp_path, capsys, drop_rows, drop_column, bad_cells, message):
    _, out, train = fit_once(tmp_path, "fit")
    lines = [l.split(",") for l in data_rows(out / "chain.csv")]
    for column, cell in bad_cells.items():
        lines[1][lines[0].index(column)] = cell
    keep = [k for k, name in enumerate(lines[0]) if name != drop_column]
    chain = tmp_path / "chain.csv"
    chain.write_text("".join(",".join(r[k] for k in keep) + "\n"
                             for r in lines[:1 if drop_rows else None]))
    test = train.parent / "rep0_test.csv"
    for argv in (["summarize", "--chain", chain, "--out", tmp_path / "s.csv"],
                 ["predict", "--chain", chain, "--data", test, "--out", tmp_path / "p.csv"]):
        assert run(argv) == 2
        assert re.search(message, capsys.readouterr().err)


def test_one_row_file_predicts_but_does_not_fit(tmp_path, capsys):
    _, out, train = fit_once(tmp_path, "fit")
    rows = data_rows(train.parent / "rep0_test.csv")
    one = tmp_path / "one.csv"
    one.write_text(rows[0] + "\n" + rows[1] + "\n")
    pred = tmp_path / "pred.csv"
    assert run(["predict", "--chain", out / "chain.csv", "--data", one, "--out", pred]) == 0
    assert len(data_rows(pred)) == 2 and "#me:" in pred.read_text()
    for model in ("blqq", "smb"):
        assert run(["fit", "--data", one, "--model", model, "--out-dir", tmp_path / model,
                    *FAST]) == 2
        assert "need n >= 2 rows" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["summarize", "fit", "predict-chain", "predict-data"])
def test_missing_input_file_exit_2(tmp_path, command):
    # run as a process: a missing file must end in an error line, not a traceback
    _, out, train = fit_once(tmp_path, "fit")
    missing = tmp_path / "missing.csv"
    argv = {
        "summarize": ["summarize", "--chain", missing, "--out", tmp_path / "s.csv"],
        "fit": ["fit", "--data", missing, "--out-dir", tmp_path / "o", *FAST],
        "predict-chain": ["predict", "--chain", missing, "--data", train,
                          "--out", tmp_path / "p.csv"],
        "predict-data": ["predict", "--chain", out / "chain.csv", "--data", missing,
                         "--out", tmp_path / "p.csv"],
    }[command]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "blqq.cli", *map(str, argv)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "missing.csv" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command,flag,target,message", [
    ("fit", "--out-dir", "file", "is not an existing directory"),
    ("fit", "--out-dir", "file/sub", "is not an existing directory"),
    ("replicate", "--out-dir", "file", "is not an existing directory"),
    ("predict", "--out", "file/p.csv", "is not an existing directory"),
    ("predict", "--out", "dir", "is a directory"),
    ("summarize", "--out", "file/s.csv", "is not an existing directory"),
    ("summarize", "--out", "missing/s.csv", "is not an existing directory")],
    ids=["fit-file", "fit-under-file", "replicate-file", "predict-under-file", "predict-dir",
         "summarize-under-file", "summarize-under-missing"])
def test_unwritable_output_path_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                       command, flag, target, message):
    # an output path that cannot be written is named before the command reads
    # a chain or samples one, and nothing is created on the way
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    for name in ("blqq.cli.run_chain", "blqq.baselines.run_chain", "blqq.io.read_chain_csv"):
        monkeypatch.setattr(name, must_not_run)
    data = tmp_path / "data.csv"
    data.write_text("x1,y,z\n0.1,0.2,1\n0.3,0.4,0\n0.5,-0.1,1\n")
    (tmp_path / "file").write_text("in the way\n")
    (tmp_path / "dir").mkdir()
    before = sorted(tmp_path.rglob("*"))
    argv = {
        "fit": ["fit", "--data", data, *FAST],
        "replicate": ["replicate", "--p", "4", "--replicates", "1", *FAST],
        "predict": ["predict", "--chain", tmp_path / "chain.csv", "--data", data],
        "summarize": ["summarize", "--chain", tmp_path / "chain.csv"],
    }[command]
    assert run([*argv, flag, tmp_path / target]) == 2
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_text() == "in the way\n"


def test_config_storing_no_draws_exit_2(tmp_path, capsys):
    # (iterations - burn_in) // thin = 0: rejected before any sampling
    _, _, train = fit_once(tmp_path, "fit")
    few = ["--iterations", "10", "--burn-in", "5", "--thin", "10"]
    out = tmp_path / "o"
    assert run(["fit", "--data", train, "--out-dir", out, *few]) == 2
    assert "no draw is stored" in capsys.readouterr().err
    assert not (out / "chain.csv").exists()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["replicate", "--p", "4", "--sparsity", "0.25", "--replicates", "1",
                    *few, "--out-dir", tmp_path / "rep"]) == 2
    assert not (tmp_path / "rep").exists()


def test_dropped_start_value_flags_exit_2(capsys):
    # the hypers start at a constant; the old flags are gone, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", "d.csv", "--out-dir", "o", "--init-r1", "0.5"])
    assert exc.value.code == 2
    assert "--init-r1" in capsys.readouterr().err


def test_predict_dimension_mismatch(tmp_path, capsys):
    _, out, _ = fit_once(tmp_path, "fit")
    other = tmp_path / "other.csv"
    other.write_text("x1,x2\n1.0,2.0\n0.5,0.1\n")
    assert run(["predict", "--chain", out / "chain.csv", "--data", other,
                "--out", tmp_path / "p.csv"]) == 2
    assert "predictors" in capsys.readouterr().err


def test_fit_malformed_data_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,y,z\n1.0,2.0,7\n0.1,0.2,0\n")
    assert run(["fit", "--data", bad, "--out-dir", tmp_path / "o", *FAST]) == 2
    assert "must be 0 or 1" in capsys.readouterr().err


@pytest.mark.parametrize("cell, column, found", [
    ("nan", "x2", "nan"), ("inf", "x2", "inf"), ("-inf", "x2", "-inf"),
    ("nan", "y", "nan"), ("1e999", "y", "inf")])
@pytest.mark.parametrize("command", ["fit", "predict"])
def test_non_finite_cell_exit_2(tmp_path, capsys, command, cell, column, found):
    # the error names the line and column of the first non-finite cell, as
    # every other bad-cell message names its line
    rows = [["0.1", "0.2", "1.0", "1"], ["0.3", "0.4", "2.0", "0"], ["0.5", "0.6", "3.0", "1"]]
    rows[1][["x1", "x2", "y"].index(column)] = cell
    bad = tmp_path / "bad.csv"
    lines = ["#seed: 0", "x1,x2,y,z", *(",".join(r) for r in rows)]
    bad.write_text("\n".join(lines) + "\n")
    if command == "fit":
        argv = ["fit", "--data", bad, "--out-dir", tmp_path / "o", *FAST]
    else:
        chain = tmp_path / "chain.csv"
        bio.write_chain_csv(chain, Draws(np.full((1, 2 * 2 + 6), 0.5)))
        argv = ["predict", "--chain", chain, "--data", bad, "--out", tmp_path / "p.csv"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"line 4: column '{column}' must be finite, found {found}" in err
    assert not (tmp_path / "o").exists() and not (tmp_path / "p.csv").exists()


def test_numeric_failure_exit_3(tmp_path, monkeypatch, capsys):
    _, out, train = fit_once(tmp_path, "fit")

    def boom(*a, **k):
        raise RuntimeError("numeric failure at iteration 3: test")

    monkeypatch.setattr(cli, "run_chain", boom)
    assert run(["fit", "--data", train, "--out-dir", tmp_path / "o", *FAST]) == 3
    assert "numeric failure" in capsys.readouterr().err


def _raise(exc):
    raise exc


# case -> (owner, name, failing call, fault run before that call, message)
_FAULTS = {
    "start-lstsq": (np.linalg, "lstsq", 1,
                    lambda *a, **k: _raise(np.linalg.LinAlgError("SVD did not converge")),
                    "numeric failure at the start: SVD did not converge"),
    "sigma2-value-error": (sampler, "sample_sigma2_mh", 3,
                           lambda *a, **k: _raise(ValueError("math domain error")),
                           "numeric failure at iteration 3: math domain error"),
    "xtu-drift": (sampler, "sample_u_sweep", 4,
                  lambda state, fc, ws, gen: np.add(ws.xtu, 1.0, out=ws.xtu),
                  "numeric failure at iteration 4: incremental X'u statistic drifted"),
}


def _inject(monkeypatch, case):
    owner, name, nth, fault, _ = _FAULTS[case]
    real, calls = getattr(owner, name), []

    def wrapper(*args, **kwargs):
        calls.append(1)
        if len(calls) == nth:
            fault(*args, **kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("case", sorted(_FAULTS))
def test_fault_in_a_chain_is_a_numeric_failure(tmp_path, monkeypatch, capsys, case):
    # whatever its class, an exception from the start or a scan is a numeric
    # failure: fit exits 3 naming where the chain stopped, once, with nothing
    # written, and replicate records the failed chain and writes both tables
    _, _, train = fit_once(tmp_path, "fit")
    capsys.readouterr()
    message = _FAULTS[case][-1]
    _inject(monkeypatch, case)
    out = tmp_path / "o"
    assert run(["fit", "--data", train, "--out-dir", out, *FAST]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()
    _inject(monkeypatch, case)
    rep = tmp_path / "rep"
    assert run(["replicate", "--p", "4", "--sparsity", "0.25", "--replicates", "1",
                *FAST, "--out-dir", rep]) == 0
    raw = (rep / "losses_raw.csv").read_text()
    assert f"0,blqq,failed: {message}," in raw
    assert ",0,smb,ok," in raw
    assert "blqq,rmse (incomplete)," in (rep / "losses_summary.csv").read_text()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--sparsity", "1.5"], "sparsity must lie in [0, 1], got 1.5"),
    (["simulate", "--sparsity", "-0.2"], "sparsity must lie in [0, 1], got -0.2"),
    (["simulate", "--sparsity", "nan"], "sparsity must lie in [0, 1], got nan"),
    (["replicate", "--sparsity", "1.5", *FAST], "sparsity must lie in [0, 1], got 1.5"),
    (["simulate", "--seed", "-1"], "base_seed must be >= 0, got -1"),
    (["replicate", "--seed", "-1", *FAST], "seed must be >= 0, got -1"),
    (["fit", "--seed", "-3", *FAST], "seed must be >= 0, got -3")],
    ids=["simulate-sparsity-1.5", "simulate-sparsity-neg", "simulate-sparsity-nan",
         "replicate-sparsity-1.5", "simulate-seed-neg", "replicate-seed-neg", "fit-seed-neg"])
def test_out_of_range_value_exit_2(tmp_path, capsys, argv, message):
    # a value argparse accepts but the model cannot use is rejected naming
    # its field, before anything is written
    out = tmp_path / "out"
    command, *flags = argv
    if command == "fit":
        _, _, train = fit_once(tmp_path, "fit")
        capsys.readouterr()
        flags += ["--data", train]
    else:
        flags = ["--p", "10", *flags]
    assert run([command, *flags, "--out-dir", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("order, code", [(40, 0), (700, 3)])
def test_high_effect_order(tmp_path, order, code):
    # 0.3^700 underflows to 0: the fit stops with a numeric error naming the
    # column, before the precision 1/v is formed, and with no RuntimeWarning
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 3))
    y = X @ [1.0, 0.5, 0.0] + rng.standard_normal(40)
    z = (X @ [1.0, -1.0, 0.0] + rng.standard_normal(40) > 0).astype(int)
    data = tmp_path / "data.csv"
    bio.write_dataset_csv(data, Dataset(X, y, z, orders=EffectOrders([1, 2, order])))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-W", "default", "-m", "blqq.cli", "fit",
                           "--data", str(data), "--out-dir", str(tmp_path / "o"), *FAST],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == code, proc.stderr
    assert "Warning" not in proc.stderr
    if code:
        assert "prior variance of beta1_3 (effect order 700)" in proc.stderr


def _overflow_lines(case):
    if case == "tail-hang":
        return ["x1,y,z", "-7.219059119776026e+18,-3.6896464665875155e+299,1",
                "-1.7779053892097484e+20,-2.2109122000117825e+300,1"]
    if case == "huge-truncation":       # a finite truncation point beyond 1e154
        return ["x1,x2,y,z", "1e+154,1e-300,1e-154,0", "1e-300,3.0,0,0",
                "5e-324,0,-1e-300,0", "1.0,0.5,-1e+154,0"]
    rng = np.random.default_rng(21)
    X = rng.standard_normal((30, 3))
    y = X @ [1.0, 0.5, 0.0] + rng.standard_normal(30)
    z = (X @ [1.0, -1.0, 0.0] + rng.standard_normal(30) > 0).astype(int)
    X, y = {"x-times-1e200": (1e200 * X, y), "y-times-1e200": (X, 1e200 * y)}[case]
    return ["x1,x2,x3,y,z"] + [f"{a!r},{b!r},{c!r},{yi!r},{zi}"
                               for (a, b, c), yi, zi in zip(X.tolist(), y.tolist(), z)]


@pytest.mark.parametrize("case", ["tail-hang", "huge-truncation", "x-times-1e200", "y-times-1e200"])
def test_overflowing_data_exit_3(tmp_path, case):
    # squares of these inputs overflow, so the start or the beta precision is
    # not finite; the fit must stop as a numeric failure with nothing written,
    # not run on inf, hang in the half-line draw, or report invalid input
    data = tmp_path / "data.csv"
    data.write_text("\n".join(_overflow_lines(case)) + "\n")
    out = tmp_path / "o"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    try:
        proc = subprocess.run([sys.executable, "-m", "blqq.cli", "fit", "--data", str(data),
                               "--out-dir", str(out), *FAST], timeout=60,
                              capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    except subprocess.TimeoutExpired:
        pytest.fail("blqq fit did not return within 60 s")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.count("numeric failure") == 1, proc.stderr
    # numpy's own overflow and invalid-value warnings would bury that line
    assert "encountered in" not in proc.stderr, proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("model,rows,message", [
    # the fallback's downdated precision is singular at row 4
    ("smb", ["0.0,3.0,0", "0.5,1e-154,0", "5e-324,1e154,0", "1e154,-1e154,0"],
     "at iteration 1: singular downdated precision in the leave-one-out fallback at row 4"),
    # the statistic, the beta mean and the sweep's w y overflow on the way
    ("blqq", ["1.0,-1.7e308,1", "0.0,1e-300,0"],
     "at iteration 1: truncation point nan is not finite"),
    # the fallback's products and the X'u drift check overflow on the way
    ("blqq", ["0.5,1e-154,-1e154,0", "1.0,1e-300,-1.0,1", "5e-324,5e-324,-1e154,0",
              "1e154,-1.0,-1e154,1"],
     "at iteration 2: truncation point nan is not finite"),
    # _order_sums' beta * beta overflows
    ("blqq", ["0.0,-1.0,1", "1.0,-1e154,1"],
     "at iteration 3: prior variance of beta1_1 (effect order 1) is tau^2 * r^order = inf "
     "at tau^2 = inf, r = 0.240059; it must be finite and at least 2.22507e-308"),
    # the residuals' sums of squares overflow in refresh_residuals
    ("blqq", ["1.0,0.0,1e300,0", "1e-300,-1e-300,1e-154,1"],
     "at iteration 2: prior variance of beta2_1 (effect order 1) is tau^2 * r^order = inf "
     "at tau^2 = inf, r = 0.3; it must be finite and at least 2.22507e-308"),
    # the statistic and the beta mean refreshed after the sweep are invalid
    ("smb", ["1e154,1e-300,1e-154,0", "1e-300,3,0,0", "5e-324,0,-1e-300,0", "1,0.5,-1e154,0"],
     "at iteration 3: prior variance of beta1_1 (effect order 1) is tau^2 * r^order = nan "
     "at tau^2 = nan, r = 0.240059; it must be finite and at least 2.22507e-308"),
], ids=["fallback-singular", "nan-truncation", "fallback-overflow",
        "order-sums", "residual-quads", "mean-refresh"])
def test_numeric_failure_in_the_sweep_is_named(tmp_path, capsys, model, rows, message):
    # degenerate files that fail in the u-sweep, or after it where its
    # overflow reaches the hyper moves' prior variances, exit 3 with one line
    # naming the failure, write no chain, and let numpy warn about nothing on
    # the way
    p = rows[0].count(",") - 1
    data = tmp_path / "data.csv"
    data.write_text("\n".join([",".join([f"x{j + 1}" for j in range(p)] + ["y", "z"]), *rows]) + "\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["fit", "--data", data, "--out-dir", out, "--model", model,
                    "--iterations", "60", "--burn-in", "10"])
    assert code == 3
    assert capsys.readouterr().err == f"error: numeric failure {message}\n"
    assert not (out / "chain.csv").exists()


def _high_leverage_lines():
    """60 rows whose x2 is 0 except 1e6 at row 18: that row's closed-form
    leave-one-out denominator falls below _DENOM_FLOOR on every scan."""
    rng = np.random.default_rng(5)
    x1 = rng.standard_normal(60)
    x2 = np.zeros(60)
    x2[18] = 1e6
    y = 1.5 * x1 + rng.standard_normal(60)
    z = (x1 + rng.standard_normal(60) > 0).astype(int)
    return ["x1,x2,y,z"] + [f"{a!r},{b!r},{c!r},{d}" for a, b, c, d
                            in zip(x1.tolist(), x2.tolist(), y.tolist(), z.tolist())]


def test_fallback_on_a_valid_posterior(tmp_path):
    # a high-leverage row takes the leave-one-out fallback on every scan of a
    # fit that runs through: exit 0, every draw finite, no RuntimeWarning
    data = tmp_path / "data.csv"
    data.write_text("\n".join(_high_leverage_lines()) + "\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["fit", "--data", data, "--out-dir", out,
                    "--iterations", "600", "--burn-in", "100", "--seed", "0"])
    assert code == 0
    rows = [ln.split(",") for ln in data_rows(out / "diagnostics.csv")]
    assert [r[1:] for r in rows if r[0] == "loo_fallbacks"] == [["u", "", "600"]]
    draws = bio.read_chain_csv(out / "chain.csv").draws
    assert draws.shape == (500, 10) and np.isfinite(draws).all()


def _degenerate_lines(case):
    rng = np.random.default_rng(21)
    n, p = {"n-below-p": (3, 5), "n-2": (2, 3)}.get(case, (30, 3))
    X = rng.standard_normal((n, p))
    b = np.zeros(p)
    b[:3] = [1.0, 0.5, 0.0]
    y = X @ b + rng.standard_normal(n)
    z = (X @ -b + rng.standard_normal(n) > 0).astype(int)
    if case == "zero-column":
        X[:, 2] = 0.0
    elif case == "constant-column":
        X[:, 2] = 1.5
    elif case == "duplicate-columns":
        X[:, 2] = X[:, 0]
    elif case == "constant-y":
        y[:] = 2.0
    elif case in ("z-all-0", "z-all-1"):
        z[:] = int(case[-1])
    elif case == "perfect-fit":
        y = X @ b
    elif case.startswith("x-times-"):
        X = float(case[8:]) * X
    elif case.startswith("y-times-"):
        y = float(case[8:]) * y
    header = [f"x{j + 1}" for j in range(p)] + ["y", "z"]
    return [",".join(header)] + [",".join([*map(repr, row), repr(yi), str(zi)])
                                 for row, yi, zi in zip(X.tolist(), y.tolist(), z.tolist())]


@pytest.mark.parametrize("case", [
    "n-below-p", "zero-column", "constant-column", "constant-y", "z-all-0", "z-all-1",
    "duplicate-columns", "n-2", "perfect-fit", "x-times-1e150", "x-times-1e-150",
    "y-times-1e150", "y-times-1e-150"])
def test_degenerate_data(tmp_path, case):
    # every one of these files fits: exit 0 with no RuntimeWarning on the way
    # (a rank-deficient X starts at lstsq's minimum-norm solution, sigma2 near
    # 1e300 at y * 1e150 stays finite), and finite summaries, ESS and acf values
    data = tmp_path / "data.csv"
    data.write_text("\n".join(_degenerate_lines(case)) + "\n")
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["fit", "--data", data, "--out-dir", out, *FAST])
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    summary = [ln.split(",") for ln in data_rows(out / "summary.csv")[1:]]
    diagnostics = [ln.split(",") for ln in data_rows(out / "diagnostics.csv")]
    values = [float(c) for cells in summary for c in cells[1:]]
    values += [float(cells[3]) for cells in diagnostics if cells[0] in ("ess", "acf")]
    assert np.isfinite(values).all()


@pytest.mark.parametrize("n", [3, 4])
def test_sigma2_near_float_max(tmp_path, capsys, n):
    # at y ~ 1e153-1e154 on a few rows sigma2 starts near 1e306-1e308: the
    # start's mean square, the sigma^2 and rho targets, the summary's mean and
    # the histograms must stay finite, so fit exits 0 and no RuntimeWarning is
    # raised on the way; at 4 rows, y ~ 1e154 and data seed 3 the mean square
    # itself exceeds float max, a numeric failure (exit 3) with nothing written
    cases = [(1e153, 0, 0), (1e154, 0, 0)] + ([(1e154, 3, 3)] if n == 4 else [])
    for scale, seed, expected in cases:
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, 2))
        y = (X[:, 0] - X[:, 1] + rng.standard_normal(n)) * scale
        z = (X[:, 0] + rng.standard_normal(n) > 0).astype(int)
        data = tmp_path / f"data{scale:.0e}_{seed}.csv"
        data.write_text("x1,x2,y,z\n" + "".join(f"{a!r},{b!r},{c!r},{d}\n" for (a, b), c, d
                                                in zip(X.tolist(), y.tolist(), z.tolist())))
        out = tmp_path / f"o{scale:.0e}_{seed}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["fit", "--data", data, "--out-dir", out, *FAST])
        assert code == expected
        if expected == 3:
            assert "sigma2 is not finite" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("n, p", [(3, 1), (12, 2)])
@pytest.mark.parametrize("model", ["blqq", "smb"])
def test_scale_grid(tmp_path, capsys, model, n, p):
    # X and y each scaled across the float range: every fit exits 0, or 3 as
    # a numeric failure with no chain written, and none raises a
    # RuntimeWarning or lets an exception out of main; 100 stored draws, so
    # the ESS is computed too
    rng = np.random.default_rng(n)
    X0 = rng.standard_normal((n, p))
    y0 = X0 @ np.linspace(1.0, -0.5, p) + rng.standard_normal(n)
    z = np.arange(n) % 2                    # both classes
    header = [f"x{j + 1}" for j in range(p)] + ["y", "z"]
    scales = (1e-300, 1e-150, 1.0, 1e150, 1e300)
    for sx in scales:
        for sy in scales:
            case = f"X*{sx:g}, y*{sy:g}"
            data = tmp_path / f"data_{sx:g}_{sy:g}.csv"
            rows = [",".join([*map(repr, row), repr(yi), str(zi)])
                    for row, yi, zi in zip((sx * X0).tolist(), (sy * y0).tolist(), z.tolist())]
            data.write_text("\n".join([",".join(header), *rows]) + "\n")
            out = tmp_path / f"o_{sx:g}_{sy:g}"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    code = run(["fit", "--data", data, "--out-dir", out, "--model", model,
                                "--iterations", "120", "--burn-in", "20"])
                except Exception as exc:
                    pytest.fail(f"{case}: {exc!r} left main")
            err = capsys.readouterr().err
            assert code in (0, 3), case
            if code == 3:
                assert "numeric failure" in err, case
                assert not (out / "chain.csv").exists(), case
            if sx == sy == 1.0:
                assert code == 0, case


@pytest.mark.parametrize("n, p", [(3, 1), (12, 2)])
@pytest.mark.parametrize("model", ["blqq", "smb"])
def test_start_beyond_the_float_range(tmp_path, capsys, model, n, p):
    # X*1e-300 against y*1e150: the least-squares coefficients (about 1e450)
    # leave the float range although the Gram matrix underflows and the
    # posterior is about the prior, so the chain starts them at 0 and runs;
    # at y*1e300 the mean square itself is beyond float max, and the start
    # names sigma2
    rng = np.random.default_rng(n)
    X = 1e-300 * rng.standard_normal((n, p))
    y0 = rng.standard_normal(n)
    header = ",".join([f"x{j + 1}" for j in range(p)] + ["y", "z"])
    for sy, expected in ((1e150, 0), (1e300, 3)):
        data = tmp_path / f"data_{sy:g}.csv"
        data.write_text("\n".join([header] + [
            ",".join([*map(repr, row), repr(yi), str(i % 2)])
            for i, (row, yi) in enumerate(zip(X.tolist(), (sy * y0).tolist()))]) + "\n")
        out = tmp_path / f"o_{sy:g}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["fit", "--data", data, "--out-dir", out, "--model", model, *FAST])
        err = capsys.readouterr().err
        assert code == expected, err
        if expected == 0:
            assert np.isfinite(bio.read_chain_csv(out / "chain.csv").draws).all()
        else:
            assert "numeric failure at the start: sigma2 is not finite" in err
            assert not out.exists()


@pytest.mark.parametrize("lines, message", [
    (["x1,y,y,z", "1.0,2.0,3.0,1", "0.5,1.0,4.0,0", "0.2,0.1,5.0,1"],
     "line 1: repeated column 'y'"),
    (["#orders: 1,99999999999999999999", "x1,x2,y,z", "1.0,2.0,3.0,1", "0.5,1.0,4.0,0"],
     "line 1: malformed #orders: entry"),
    (["#orders: 1,-1", "x1,x2,y,z", "1.0,2.0,3.0,1", "0.5,1.0,4.0,0"],
     "line 1: #orders: entry 2 is -1, but effect orders must be nonnegative")],
    ids=["repeated-column", "oversized-order", "negative-order"])
def test_malformed_header_exit_2(tmp_path, lines, message):
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-m", "blqq.cli", "fit", "--data", str(data),
                           "--out-dir", str(tmp_path / "o"), *FAST],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["simulate", "--replicates", "0"], ["simulate", "--replicates", "-2"],
    ["simulate", "--n-train", "0"], ["simulate", "--n-test", "0"],
    ["simulate", "--p", "0"], ["replicate", "--replicates", "0", *FAST]],
    ids=["simulate-replicates-0", "simulate-replicates-neg", "simulate-n-train-0",
         "simulate-n-test-0", "simulate-p-0", "replicate-replicates-0"])
def test_count_below_one_exit_2(tmp_path, capsys, argv):
    # rejected before anything is written
    out = tmp_path / "out"
    command, *flags = argv
    assert run([command, "--p", "4", "--sparsity", "0.25", *flags, "--out-dir", out]) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--rho", "1.5"], "argument --rho: must lie in (-1, 1), got 1.5"),
    (["simulate", "--rho", "-1"], "argument --rho: must lie in (-1, 1), got -1"),
    (["simulate", "--sigma2", "-1"], "argument --sigma2: must lie in (0, inf), got -1"),
    (["simulate", "--sigma2", "0"], "argument --sigma2: must lie in (0, inf), got 0"),
    (["replicate", "--rho", "1.5", *FAST], "argument --rho: must lie in (-1, 1), got 1.5")],
    ids=["simulate-rho-1.5", "simulate-rho-neg1", "simulate-sigma2-neg", "simulate-sigma2-0",
         "replicate-rho-1.5"])
def test_out_of_range_flag_exit_2(tmp_path, capsys, argv, message):
    # rejected with the flag's name before anything is written
    out = tmp_path / "out"
    command, *flags = argv
    with pytest.raises(SystemExit) as exc:
        run([command, "--p", "4", "--sparsity", "0.25", *flags, "--out-dir", out])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_replicate_small_grid(tmp_path):
    out = tmp_path / "rep"
    assert run(["replicate", "--rho", "0.85", "--p", "4", "--sparsity", "0.25",
                "--replicates", "2", "--seed", "1", *FAST, "--out-dir", out]) == 0
    raw = (out / "losses_raw.csv").read_text().strip().splitlines()
    body = [l for l in raw if not l.startswith("#")]
    assert body[0].startswith("setting,replicate,method,status,")
    assert len(body) == 1 + 2 * 2  # 2 replicates x 2 methods
    assert all(",ok," in l for l in body[1:])
    # every loss is a float cell, fsl included (3.0, not 3); fp and fn are counts
    header = body[0].split(",")
    for line in body[1:]:
        row = dict(zip(header, line.split(",")))
        assert all(row[f] == repr(float(row[f])) for f in cli.LOSS_FIELDS), line
        assert row["fp"].isdigit() and row["fn"].isdigit(), line
    agg = (out / "losses_summary.csv").read_text()
    assert "rho0.85_p4_s0.25,blqq,rmse," in agg
    assert "rho0.85_p4_s0.25,smb,me," in agg
    assert "(incomplete)" not in agg
    for f in ("losses_raw.csv", "losses_summary.csv"):
        meta = [ln[1:] for ln in (out / f).read_text().splitlines() if ln.startswith("#")]
        assert [m.split(":", 1)[0] for m in meta] == [*PROVENANCE, "replicates"], f
        assert meta[3] == "thin: 1" and meta[-1] == "replicates: 2"


def test_replicate_byte_identical_rerun(tmp_path):
    args = ["replicate", "--p", "4", "--sparsity", "0.25", "--replicates", "1",
            "--seed", "2", *FAST]
    run(args + ["--out-dir", tmp_path / "a"])
    run(args + ["--out-dir", tmp_path / "b"])
    for f in ("losses_raw.csv", "losses_summary.csv"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_every_written_file_is_a_table(tmp_path, monkeypatch):
    # each CSV any command writes is one table: below its '#' lines, every
    # row has the header's cell count, and a failure message with a comma
    # stays one status cell
    _, out, train = fit_once(tmp_path, "fit")
    fit_once(tmp_path, "smb", extra=["--model", "smb"])
    assert run(["predict", "--chain", out / "chain.csv", "--data", train.parent / "rep0_test.csv",
                "--out", tmp_path / "pred.csv"]) == 0
    assert run(["summarize", "--chain", out / "chain.csv", "--out", tmp_path / "summ.csv"]) == 0
    real = cli.run_chain
    calls = []

    def flaky(*a, **k):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("numeric failure at iteration 1: a, b")
        return real(*a, **k)

    monkeypatch.setattr(cli, "run_chain", flaky)
    assert run(["replicate", "--p", "4", "--sparsity", "0.25", "--replicates", "1",
                *FAST, "--out-dir", tmp_path / "rep"]) == 0
    paths = sorted(tmp_path.rglob("*.csv"))
    assert len(paths) == 3 + 2 * 13 + 2 + 2    # simulate, 2 fits, predict, summarize, replicate
    for path in paths:
        lines = [l for l in path.read_text().splitlines() if l.strip() and not l.startswith("#")]
        header, *rows = csv.reader(lines)
        assert all(len(cells) == len(header) for cells in rows), path
    raw = (tmp_path / "rep" / "losses_raw.csv").read_text()
    assert "failed: numeric failure at iteration 1: a; b" in raw


def test_replicate_records_failures_and_continues(tmp_path, monkeypatch):
    calls = {"n": 0}
    real = cli.run_chain

    def flaky(*a, **k):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("numeric failure at iteration 1: test")
        return real(*a, **k)

    monkeypatch.setattr(cli, "run_chain", flaky)
    out = tmp_path / "rep"
    assert run(["replicate", "--p", "4", "--sparsity", "0.25", "--replicates", "2",
                "--seed", "3", *FAST, "--out-dir", out]) == 0
    raw = (out / "losses_raw.csv").read_text()
    assert "failed: numeric failure" in raw
    assert "(incomplete)" in (out / "losses_summary.csv").read_text()


_FUZZ_CELLS = (0, 0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e-300, -1e-300, 1e300, -1e300,
               1e154, -1e154, 1e-154, 5e-324, 1.7e308, -1.7e308)


@st.composite
def _fuzz_file(draw):
    n, p = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    cell = st.sampled_from(_FUZZ_CELLS)
    rows = [[repr(draw(cell)) for _ in range(p + 1)] + [str(draw(st.sampled_from((0, 1))))]
            for _ in range(n)]
    header = [f"x{j + 1}" for j in range(p)] + ["y", "z"]
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n", draw(
        st.sampled_from(("blqq", "smb")))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_fuzz_file())
def test_fuzz_fit_exit_codes(tmp_path_factory, case):
    # any file of degenerate cells the parser accepts ends in exit 0, 2 or 3,
    # never in an exception out of main, and a failed fit writes no chain
    text, model = case
    tmp = tmp_path_factory.mktemp("fuzz")
    data = tmp / "data.csv"
    data.write_text(text)
    out = tmp / "o"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = run(["fit", "--data", data, "--out-dir", out, "--model", model,
                        "--iterations", "60", "--burn-in", "10"])
        except Exception as exc:
            pytest.fail(f"{exc!r} left main on\n{text}")
    assert code in (0, 2, 3), text
    if code:
        assert err.getvalue().startswith("error: "), text
        assert not (out / "chain.csv").exists(), text
