import warnings
from dataclasses import replace

import numpy as np
import pytest

from blqq import io as bio
from blqq.model import Draws, EffectOrders, draw_columns
from blqq.simulate import SimulationScenario, gen_replicate


def sample_data():
    return gen_replicate(SimulationScenario(p=3, sparsity=1.0 / 3,
                                            n_train=20, n_test=5), 0).train


def extreme_doubles(rng, n):
    """n doubles whose text a parser can get wrong: the smallest subnormal,
    the smallest normal and the largest double (both signs), -0.0, 0.1 and
    1/3, then random doubles across the exponent range, which mostly take 17
    significant digits to write."""
    fixed = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0, 0.1, 1 / 3]
    fixed += [-v for v in fixed[:3]]
    spread = rng.uniform(-10, 10, n) * 10.0 ** rng.integers(-300, 300, n)
    return np.concatenate([fixed, spread])[:n]


def test_write_table_formats_every_value(tmp_path):
    # _write_table turns each value into text: a str as it is, an integer
    # (Python or numpy) in decimal, any other number as repr(float(v)), in
    # cells and in '#key: value' lines alike
    cells = [0.1, 1e16, 1e-05, -0.0, 5e-324, float("nan"), float("inf"), float("-inf"),
             np.float64(2.5), 7, np.int64(-3), "abc", ""]
    header = [f"c{k}" for k in range(len(cells))]
    path = tmp_path / "t.csv"
    bio._write_table(path, header, [cells], meta={"m": 0.25}, trailer={"t": np.float64(1e-07)})
    text = path.read_text()
    assert text == ("#m: 0.25\n" + ",".join(header) + "\n"
                    "0.1,1e+16,1e-05,-0.0,5e-324,nan,inf,-inf,2.5,7,-3,abc,\n#t: 1e-07\n")
    assert "np.float64(" not in text


def test_dataset_round_trip_exact(tmp_path):
    data = sample_data()
    data.X[:] = extreme_doubles(np.random.default_rng(7), data.X.size).reshape(data.X.shape)
    data.y[:] = extreme_doubles(np.random.default_rng(8), data.n)[::-1]
    data = replace(data, orders=EffectOrders([1, 1, 2]))
    path = tmp_path / "d.csv"
    bio.write_dataset_csv(path, data, meta={"seed": 0})
    back = bio.parse_dataset_csv(path)
    assert np.array_equal(back.X, data.X)
    assert np.array_equal(back.y, data.y)
    assert np.array_equal(np.signbit(back.X), np.signbit(data.X))
    assert np.array_equal(np.signbit(back.y), np.signbit(data.y))
    assert back.X.flags.c_contiguous and back.y.flags.c_contiguous
    assert np.array_equal(back.z, data.z)
    assert back.columns == data.columns
    assert np.array_equal(back.orders.orders, [1, 1, 2])


def test_dataset_write_deterministic(tmp_path):
    data = sample_data()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    bio.write_dataset_csv(p1, data, meta={"seed": 0})
    bio.write_dataset_csv(p2, data, meta={"seed": 0})
    assert p1.read_bytes() == p2.read_bytes()


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    write_lines(path, ["x1,y,z", "1.0,2.0,1", "1.0,oops,0"])
    with pytest.raises(bio.DatasetFormatError, match="line 3"):
        bio.parse_dataset_csv(path)

    write_lines(path, ["x1,y,z", "1.0,2.0,1", "", "#note", "1.0,2.0,2"])
    with pytest.raises(bio.DatasetFormatError, match="line 5: column 'z' must be 0 or 1, found 2.0"):
        bio.parse_dataset_csv(path)

    write_lines(path, ["x1,y,z", "1.0,2.0"])
    with pytest.raises(bio.DatasetFormatError, match="line 2: expected 3 cells, found 2"):
        bio.parse_dataset_csv(path)

    for row, message in [("1.0,,1", "non-numeric value '' in column 'y'"),
                         ("1.0,2.0,1,", "expected 3 cells, found 4"),
                         ("1.0,2.0,1,4.0,5.0", "expected 3 cells, found 5"),
                         ("1_0,2.0,1", "non-numeric value '1_0' in column 'x1'")]:
        write_lines(path, ["#seed: 0", "x1,y,z", "1.0,2.0,1", row, "0.5,1.0,0"])
        with pytest.raises(bio.DatasetFormatError, match=f"^line 4: {message}$"):
            bio.parse_dataset_csv(path)

    write_lines(path, ["x1,z", "1.0,1"])
    with pytest.raises(bio.DatasetFormatError, match="missing required column 'y'"):
        bio.parse_dataset_csv(path)

    write_lines(path, ["#orders: 1,2", "x1,y,z", "1.0,2.0,1", "0.5,1.0,0"])
    with pytest.raises(bio.DatasetFormatError, match="line 1: #orders: lists 2 entries"):
        bio.parse_dataset_csv(path)

    # a second #orders: line is refused, not read over the first
    write_lines(path, ["#orders: 1,1", "x1,x2,y,z", "#orders: 2,2", "1.0,2.0,3.0,1"])
    with pytest.raises(bio.DatasetFormatError,
                       match="^line 3: repeated #orders: entry, first given on line 1$"):
        bio.parse_dataset_csv(path)


def test_parse_skips_blank_and_comment_lines_crlf_and_quotes(tmp_path):
    # '#' and blank lines between rows, as a predictions file's '#rmse:'
    # trailer, CRLF endings, a quoted number and a z written as a float
    path = tmp_path / "d.csv"
    path.write_bytes(b'#seed: 0\r\nx1,y,z\r\n1.5,"2.5",1\r\n\r\n#note: x\r\n'
                     b'-0.5, 1e-3 ,1.0\r\n#rmse: 0.5\r\n')
    data = bio.parse_dataset_csv(path)
    assert data.X.tolist() == [[1.5], [-0.5]]
    assert data.y.tolist() == [2.5, 0.001]
    assert data.z.tolist() == [1, 1] and data.z.dtype.kind == "i"

    chain = random_draws(np.random.default_rng(9), p=1, n=2)
    cells = [[f'"{v!r}"' for v in row.tolist()] for row in chain.draws]
    path.write_bytes(("\r\n".join([",".join(chain.names), ",".join(cells[0]), "",
                                     "#note: x", ",".join(cells[1])]) + "\r\n").encode())
    assert np.array_equal(bio.read_chain_csv(path).draws, chain.draws)


def test_file_without_header_row(tmp_path):
    path = tmp_path / "empty.csv"
    write_lines(path, ["#seed: 0", "", "#orders: 1"])
    with pytest.raises(bio.DatasetFormatError, match="^file has no header row$"):
        bio.parse_dataset_csv(path)
    with pytest.raises(bio.DatasetFormatError, match="^chain file has no header row$"):
        bio.read_chain_csv(path)


def test_parse_rejects_repeated_column(tmp_path):
    # a second 'y' would otherwise be read as a predictor named 'y', and a
    # write -> parse round trip would swap it with the response
    path = tmp_path / "dup.csv"
    write_lines(path, ["#seed: 0", "x1,y,y,z", "1.0,2.0,3.0,1", "0.5,1.0,4.0,0",
                       "0.2,0.1,5.0,1"])
    with pytest.raises(bio.DatasetFormatError, match="line 2: repeated column 'y'"):
        bio.parse_dataset_csv(path)


def test_parse_rejects_oversized_order(tmp_path):
    path = tmp_path / "big.csv"
    write_lines(path, ["#orders: 1,99999999999999999999", "x1,x2,y,z", "1.0,2.0,3.0,1"])
    with pytest.raises(bio.DatasetFormatError, match="line 1: malformed #orders: entry"):
        bio.parse_dataset_csv(path)


def test_parse_without_responses(tmp_path):
    path = tmp_path / "x.csv"
    write_lines(path, ["x1,x2", "1.0,2.0", "0.5,1.5"])
    data = bio.parse_dataset_csv(path, require_responses=False)
    assert data.X.shape == (2, 2)
    assert data.y is None and data.z is None
    assert data.columns == ["x1", "x2"]
    assert np.array_equal(data.orders.orders, [1, 1])

    write_lines(path, ["x1,y", "1.0,2.0"])
    data = bio.parse_dataset_csv(path, require_responses=False)
    assert data.y.tolist() == [2.0] and data.z is None


def random_draws(rng, p, n):
    return Draws(np.column_stack([
        rng.standard_normal((n, 2 * p)),
        rng.uniform(0.5, 2.0, n), rng.uniform(-0.9, 0.9, n),
        rng.uniform(0.1, 1.0, (n, 2)), rng.uniform(0.1, 0.9, (n, 2)),
    ]))


def test_chain_round_trip_exact(tmp_path):
    chain = random_draws(np.random.default_rng(0), p=2, n=25)
    chain.beta1[:] = extreme_doubles(np.random.default_rng(1), 50).reshape(25, 2)
    chain.beta2[:] = extreme_doubles(np.random.default_rng(2), 50)[::-1].reshape(25, 2)
    path = tmp_path / "chain.csv"
    bio.write_chain_csv(path, chain, meta={"seed": 1})
    back = bio.read_chain_csv(path)
    assert np.array_equal(back.draws, chain.draws)
    assert np.array_equal(np.signbit(back.draws), np.signbit(chain.draws))
    assert back.draws.flags.c_contiguous
    for name in ("beta1", "beta2", "sigma2", "rho", "tau1_sq", "tau2_sq", "r1", "r2"):
        assert np.array_equal(getattr(back, name), getattr(chain, name)), name


def test_read_chain_reorders_columns(tmp_path):
    chain = random_draws(np.random.default_rng(3), p=1, n=4)
    path = tmp_path / "chain.csv"
    names = list(reversed(chain.names))
    write_lines(path, [",".join(names)]
                + [",".join(repr(float(v)) for v in row[::-1]) for row in chain.draws])
    assert np.array_equal(bio.read_chain_csv(path).draws, chain.draws)


def test_read_chain_strips_header_cells(tmp_path):
    # a header written with ", " separators names the same columns
    chain = random_draws(np.random.default_rng(6), p=2, n=3)
    path = tmp_path / "chain.csv"
    write_lines(path, [", ".join(["iteration"] + chain.names)]
                + [", ".join([str(i)] + [repr(float(v)) for v in row])
                   for i, row in enumerate(chain.draws)])
    assert np.array_equal(bio.read_chain_csv(path).draws, chain.draws)


def test_read_chain_short_row(tmp_path):
    path = tmp_path / "chain.csv"
    write_lines(path, ["#seed: 1", ",".join(draw_columns(1)), "1.0,2.0"])
    with pytest.raises(bio.DatasetFormatError, match="line 3: expected 8 cells"):
        bio.read_chain_csv(path)


def test_read_chain_rejects_repeated_column(tmp_path):
    chain = random_draws(np.random.default_rng(5), p=1, n=3)
    path = tmp_path / "chain.csv"
    write_lines(path, ["#seed: 1", ",".join(chain.names + ["rho"])]
                + [",".join(repr(float(v)) for v in [*row, 0.5]) for row in chain.draws])
    with pytest.raises(bio.DatasetFormatError, match="line 2: repeated column 'rho'"):
        bio.read_chain_csv(path)


@pytest.mark.parametrize("column, value", [
    ("sigma2", 0.0), ("rho", 1.0), ("rho", -1.0), ("tau1_sq", -0.5), ("tau2_sq", 0.0),
    ("r1", 0.0), ("r2", 1.0), ("beta1_1", float("inf")), ("r1", float("nan"))])
def test_read_chain_rejects_draw_outside_support(tmp_path, column, value):
    chain = random_draws(np.random.default_rng(4), p=1, n=5)
    chain.draws[2, chain.names.index(column)] = value
    path = tmp_path / "chain.csv"
    bio.write_chain_csv(path, chain)
    with pytest.raises(bio.DatasetFormatError, match=f"draw 3: column '{column}' holds {value!r}"):
        bio.read_chain_csv(path)


def test_summary_and_diagnostics_files(tmp_path):
    from blqq.metrics import summarize_draws
    draws = np.random.default_rng(1).standard_normal((200, 2))
    summary = summarize_draws(draws, ["a", "b"])
    spath = tmp_path / "summary.csv"
    bio.write_summary_csv(spath, summary)
    lines = spath.read_text().strip().split("\n")
    assert lines[0] == "parameter,mean,sd,q2.5,q97.5"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == summary.mean[0]

    dpath = tmp_path / "diag.csv"
    bio.write_diagnostics_csv(dpath, {"rho": 0.4}, {"rho": 2.5}, 3, {"rho": 150.0},
                              {"rho": np.array([1.0, 0.5])})
    text = dpath.read_text()
    assert "acceptance,rho,,0.4" in text
    assert "mh_step,rho,,2.5" in text
    assert "loo_fallbacks,u,,3" in text
    assert "ess,rho,,150.0" in text
    assert "acf,rho,1,0.5" in text


def test_histogram_counts(tmp_path):
    draws = np.random.default_rng(2).standard_normal(1000)
    path = tmp_path / "hist.csv"
    bio.write_histogram_csv(path, draws)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "bin_left,bin_right,count"
    counts = [int(l.split(",")[2]) for l in lines[1:]]
    assert sum(counts) == 1000 and len(counts) == 30
    # numpy's own edges wherever numpy can bin the column
    edges = np.histogram(draws, bins=30)[1]
    assert [l.split(",")[0] for l in lines[1:]] == [repr(float(v)) for v in edges[:-1]]


@pytest.mark.parametrize("draws", [np.full(200, 3.9e307), np.full(5, -1.7976931348623157e308),
                                   np.array([-1e308, 0.0, 1e308]), np.array([1e16, 1e16 + 2.0])],
                         ids=["constant-3.9e307", "constant-min", "span-overflows", "span-below-bins"])
def test_histogram_beyond_numpy_range(tmp_path, draws):
    # a constant beyond 2^53 (numpy's +-0.5 vanishes) or a span that overflows
    # still gets 30 finite, strictly increasing bins that hold every draw
    path = tmp_path / "hist.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        bio.write_histogram_csv(path, draws)
    rows = [l.split(",") for l in path.read_text().strip().split("\n")[1:]]
    left, right = (np.array([float(r[k]) for r in rows]) for k in (0, 1))
    assert len(rows) == 30 and sum(int(r[2]) for r in rows) == draws.size
    assert np.isfinite(left).all() and np.isfinite(right).all()
    assert (left < right).all() and np.array_equal(left[1:], right[:-1])
    assert left[0] <= draws.min() and draws.max() <= right[-1]


def test_predictions_file_with_losses(tmp_path):
    path = tmp_path / "pred.csv"
    bio.write_predictions_csv(path, [1.0, 2.0], [0.9, 0.1], [1, 0],
                              y_true=[1.1, 1.9], z_true=[1, 0],
                              losses={"rmse": 0.1, "me": 0.0})
    text = path.read_text()
    assert "row,y_hat,p_z1,z_hat,y_true,z_true" in text
    assert "#rmse: 0.1" in text
    assert "#me: 0.0" in text

    bio.write_predictions_csv(path, [1.0], [0.9], [1], y_true=[1.1])
    assert "row,y_hat,p_z1,z_hat,y_true\n0,1.0,0.9,1,1.1\n" in path.read_text()


def test_truth_round_trip(tmp_path):
    rep = gen_replicate(SimulationScenario(p=4, sparsity=0.25), 0)
    path = tmp_path / "truth.csv"
    bio.write_truth_csv(path, rep, meta={"replicate": 0})
    lines = path.read_text().splitlines()
    head = lines.index("index,beta1_true,beta2_true")
    assert lines[:head] == ["#replicate: 0", f"#rho_true: {rep.rho_true!r}",
                            f"#sigma2_true: {rep.sigma2_true!r}"]
    table = np.loadtxt(path, delimiter=",", skiprows=head + 1)
    assert np.array_equal(table[:, 0], np.arange(1, 5))
    assert np.array_equal(table[:, 1], rep.beta1_true)
    assert np.array_equal(table[:, 2], rep.beta2_true)
