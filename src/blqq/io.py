"""CSV file formats: datasets, chains, summaries, diagnostics, predictions.

All files are comma-separated with LF line endings and '.' decimals, carry
their provenance (seed and configuration) in leading '#'-prefixed lines, and
use shortest round-trip float formatting so parse(write(x)) == x exactly.
"""
from __future__ import annotations

import csv

import numpy as np

from .metrics import PosteriorSummary
from .model import ChainConfig, Dataset, Draws, EffectOrders, draw_columns


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


def _fmt(v) -> str:
    return repr(float(v))


def _write_lines(path, lines):
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _meta_lines(meta) -> list:
    return [f"#{k}: {v}" for k, v in (meta or {}).items()]


def config_meta(cfg: ChainConfig, extra=None) -> dict:
    meta = {
        "seed": cfg.seed,
        "iterations": cfg.iterations,
        "burn_in": cfg.burn_in,
        "thin": cfg.thin,
    }
    meta.update(extra or {})
    return meta


def _cell_float(cell, lineno, column) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DatasetFormatError(
            f"line {lineno}: non-numeric value {cell!r} in column {column!r}") from None


def _check_header(header, lineno):
    for k, name in enumerate(header):
        if name in header[:k]:
            raise DatasetFormatError(f"line {lineno}: repeated column {name!r}")


# --- dataset ---------------------------------------------------------------

def parse_dataset_csv(path, require_responses: bool = True):
    """Read a dataset file into (Dataset, EffectOrders).

    Header row is required; a `y` column (continuous) and a `z` column (0/1)
    are expected, all other columns are predictors in file order. An optional
    `#orders:` comment supplies per-predictor effect orders (default all 1).
    With require_responses=False either response column may be absent; the
    Dataset then holds None for it.
    """
    orders_spec = None
    header = None
    rows = []
    with open(path, "r", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("orders:"):
                    orders_line = lineno
                    try:
                        orders_spec = np.array(
                            [int(tok) for tok in body[len("orders:"):].split(",")], dtype=int)
                    except (ValueError, OverflowError):
                        raise DatasetFormatError(f"line {lineno}: malformed #orders: entry")
                    if (orders_spec < 0).any():
                        k = int(np.argmax(orders_spec < 0))
                        raise DatasetFormatError(
                            f"line {lineno}: #orders: entry {k + 1} is {orders_spec[k]}, "
                            "but effect orders must be nonnegative")
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = [c.strip() for c in cells]
                _check_header(header, lineno)
            else:
                rows.append((lineno, cells))

    if header is None:
        raise DatasetFormatError("file has no header row")
    has_y = "y" in header
    has_z = "z" in header
    if require_responses and not has_y:
        raise DatasetFormatError("missing required column 'y'")
    if require_responses and not has_z:
        raise DatasetFormatError("missing required column 'z'")

    y_idx = header.index("y") if has_y else None
    z_idx = header.index("z") if has_z else None
    pred_idx = [j for j in range(len(header)) if j not in (y_idx, z_idx)]
    if not pred_idx:
        raise DatasetFormatError("no predictor columns found")

    n = len(rows)
    X = np.empty((n, len(pred_idx)))
    y = np.empty(n) if has_y else None
    z = np.empty(n, dtype=int) if has_z else None
    for r, (lineno, cells) in enumerate(rows):
        if len(cells) != len(header):
            raise DatasetFormatError(
                f"line {lineno}: expected {len(header)} cells, found {len(cells)}")
        for k, j in enumerate(pred_idx):
            X[r, k] = _cell_float(cells[j], lineno, header[j])
        if has_y:
            y[r] = _cell_float(cells[y_idx], lineno, "y")
        if has_z:
            val = cells[z_idx].strip()
            if val not in ("0", "1"):
                raise DatasetFormatError(
                    f"line {lineno}: column 'z' must be 0 or 1, found {val!r}")
            z[r] = int(val)

    columns = [header[j] for j in pred_idx]
    if orders_spec is not None:
        if len(orders_spec) != len(pred_idx):
            raise DatasetFormatError(f"line {orders_line}: #orders: lists {len(orders_spec)} "
                                     f"entries for {len(pred_idx)} predictors")
        orders = EffectOrders(orders_spec)
    else:
        orders = EffectOrders(np.ones(len(pred_idx), dtype=int))

    return Dataset(X, y, z, columns=columns), orders


def write_dataset_csv(path, data: Dataset, orders: EffectOrders = None, meta=None):
    lines = _meta_lines(meta)
    if orders is not None:
        lines.append("#orders: " + ",".join(str(int(o)) for o in orders.orders))
    lines.append(",".join(list(data.columns) + ["y", "z"]))
    for i in range(data.n):
        cells = [_fmt(v) for v in data.X[i]] + [_fmt(data.y[i]), str(int(data.z[i]))]
        lines.append(",".join(cells))
    _write_lines(path, lines)


# --- chain -----------------------------------------------------------------

def write_chain_csv(path, chain: Draws, meta=None):
    lines = _meta_lines(meta)
    lines.append(",".join(["iteration"] + chain.names))
    for i, row in enumerate(chain.draws):
        lines.append(",".join([str(i)] + [_fmt(v) for v in row]))
    _write_lines(path, lines)


def _draw_column_index(header) -> list:
    """Positions in a chain file's header of the draw columns, in draw order."""
    p = sum(1 for name in header if name.startswith("beta1_"))
    if p == 0:
        raise DatasetFormatError("chain file has no beta1 columns")
    names = draw_columns(p)
    missing = [name for name in names if name not in header]
    if missing:
        raise DatasetFormatError(f"chain file lacks column(s) {', '.join(missing)}")
    return [header.index(name) for name in names]


def read_chain_csv(path) -> Draws:
    """Read a chain file; columns other than the draw columns are ignored."""
    header = None
    rows = []
    with open(path, "r", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip() or line.startswith("#"):
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = [c.strip() for c in cells]
                _check_header(header, lineno)
                idx = _draw_column_index(header)
            elif len(cells) != len(header):
                raise DatasetFormatError(
                    f"line {lineno}: expected {len(header)} cells, found {len(cells)}")
            else:
                try:
                    rows.append([float(cells[k]) for k in idx])
                except ValueError:
                    for k in idx:       # raises, naming the first bad cell
                        _cell_float(cells[k], lineno, header[k])
    if header is None:
        raise DatasetFormatError("chain file has no header row")
    if not rows:
        raise DatasetFormatError("chain file has no draws")
    draws = Draws(np.array(rows))
    _check_support(draws)
    return draws


# Open interval each scalar draw must lie in; every other draw must be finite.
_SUPPORT = {"sigma2": (0.0, np.inf), "rho": (-1.0, 1.0), "tau1_sq": (0.0, np.inf),
            "tau2_sq": (0.0, np.inf), "r1": (0.0, 1.0), "r2": (0.0, 1.0)}


def _check_support(chain: Draws):
    """Raise on the first draw, in file order, holding a value its parameter
    cannot take; draws are numbered from 1 in the order the file lists them."""
    ok = np.isfinite(chain.draws)
    for name, (lo, hi) in _SUPPORT.items():
        col = chain.column(name)
        ok[:, chain.names.index(name)] &= (lo < col) & (col < hi)
    if not ok.all():
        k, j = divmod(int(np.argmin(ok)), ok.shape[1])
        name = chain.names[j]
        lo, hi = _SUPPORT.get(name, (-np.inf, np.inf))
        raise DatasetFormatError(f"draw {k + 1}: column {name!r} holds "
                                 f"{_fmt(chain.draws[k, j])}, outside ({_fmt(lo)}, {_fmt(hi)})")


# --- summaries, diagnostics, histograms ------------------------------------

def write_summary_csv(path, summary: PosteriorSummary, meta=None):
    lines = _meta_lines(meta)
    lines.append("parameter,mean,sd,q2.5,q97.5")
    for k, name in enumerate(summary.names):
        lines.append(",".join([name, _fmt(summary.mean[k]), _fmt(summary.sd[k]),
                               _fmt(summary.q025[k]), _fmt(summary.q975[k])]))
    _write_lines(path, lines)


def write_diagnostics_csv(path, acceptance, steps, loo_fallbacks, ess, acf_table, meta=None):
    """acceptance: {target: rate}; steps: {target: final MH step size};
    loo_fallbacks: count of leave-one-out fallback evaluations; ess:
    {param: value}; acf_table: {param: array of autocorrelations by lag}."""
    lines = _meta_lines(meta)
    lines.append("record,name,lag,value")
    for target, rate in acceptance.items():
        lines.append(f"acceptance,{target},,{_fmt(rate) if rate == rate else 'nan'}")
    for target, step in steps.items():
        lines.append(f"mh_step,{target},,{_fmt(step)}")
    lines.append(f"loo_fallbacks,u,,{int(loo_fallbacks)}")
    for name, value in ess.items():
        lines.append(f"ess,{name},,{_fmt(value)}")
    for name, values in acf_table.items():
        for lag, value in enumerate(values):
            lines.append(f"acf,{name},{lag},{_fmt(value)}")
    _write_lines(path, lines)


def write_histogram_csv(path, draws, bins: int = 30, meta=None):
    counts, edges = np.histogram(np.asarray(draws, dtype=float), bins=bins)
    lines = _meta_lines(meta)
    lines.append("bin_left,bin_right,count")
    for k in range(counts.shape[0]):
        lines.append(f"{_fmt(edges[k])},{_fmt(edges[k + 1])},{int(counts[k])}")
    _write_lines(path, lines)


def write_predictions_csv(path, y_hat, p_z1, z_hat, y_true=None, z_true=None,
                          losses=None, meta=None):
    lines = _meta_lines(meta)
    header = "row,y_hat,p_z1,z_hat"
    if y_true is not None:
        header += ",y_true"
    if z_true is not None:
        header += ",z_true"
    lines.append(header)
    for i in range(len(y_hat)):
        cells = [str(i), _fmt(y_hat[i]), _fmt(p_z1[i]), str(int(z_hat[i]))]
        if y_true is not None:
            cells.append(_fmt(y_true[i]))
        if z_true is not None:
            cells.append(str(int(z_true[i])))
        lines.append(",".join(cells))
    for k, v in (losses or {}).items():
        lines.append(f"#{k}: {_fmt(v)}")
    _write_lines(path, lines)


def write_truth_csv(path, rep, meta=None):
    lines = _meta_lines(meta)
    lines.append(f"#rho_true: {_fmt(rep.rho_true)}")
    lines.append(f"#sigma2_true: {_fmt(rep.sigma2_true)}")
    lines.append("index,beta1_true,beta2_true")
    for j in range(rep.beta1_true.shape[0]):
        lines.append(f"{j + 1},{_fmt(rep.beta1_true[j])},{_fmt(rep.beta2_true[j])}")
    _write_lines(path, lines)
