"""CSV file formats: datasets, chains, summaries, diagnostics, predictions.

One reader, _read_table, and one writer, _write_table, decide the format of
every file blqq reads or writes: comma-separated cells, never quoted, with
LF line endings and '.' decimals; provenance (seed and configuration) in
leading '#key: value' lines. Writers pass values; _write_table turns each
into text (_text), a float in shortest round-trip form: parse(write(x)) ==
x exactly. Both are private, as bench/tracing.py counts I/O at the public
read_/parse_/write_ calls; blqq replicate's two loss tables and
scripts/run_case_study.py's splits.csv call _write_table directly.

A dataset file carries its effect orders in one '#orders:' line (all 1
where there is none): parse_dataset_csv returns them inside the Dataset it
reads, and write_dataset_csv writes the Dataset's own.

The files blqq reads, datasets and chains, hold only numbers below the
header, and np.loadtxt parses them in C, bit for bit as float() would. So
every data cell must be a number as numpy spells one ('1_0' and non-ASCII
digits are refused), a chain's non-draw columns included; a cell may be in
double quotes, and a z of 1.0 reads as 1. Blank lines, '#' lines between
rows and CRLF line endings are accepted.
"""
from __future__ import annotations

import csv
import itertools
import math
import sys

import numpy as np

from .metrics import PosteriorSummary
from .model import ChainConfig, Dataset, Draws, EffectOrders, PriorConfig, draw_columns


class DatasetFormatError(ValueError):
    """Malformed dataset file; message carries the offending line number."""


def _text(v) -> str:
    """A value as _write_table writes it: a str as it is, an integer in decimal,
    any other number as repr(float(v)), the shortest text of that double."""
    if type(v) is float or type(v) is int:
        return repr(v)
    if isinstance(v, str):
        return v
    return str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))


def config_meta(cfg: ChainConfig, prior: PriorConfig, extra=None) -> dict:
    """The '#key: value' provenance of a chain's outputs: its configuration,
    the prior constants under their CLI flags' names, then extra."""
    meta = {
        "seed": cfg.seed,
        "iterations": cfg.iterations,
        "burn_in": cfg.burn_in,
        "thin": cfg.thin,
        "nu": prior.nu,
        "delta_sq": prior.delta_sq,
        "beta_a": prior.a,
        "beta_b": prior.b,
    }
    meta.update(extra or {})
    return meta


# How np.loadtxt reads a table's data lines: comma-separated float cells, a
# cell optionally in double quotes; '#' and blank lines never reach it.
_LOADTXT = dict(delimiter=",", comments=None, quotechar='"')


def _read_table(path, what, on_comment=None):
    """(header, values, linenos) of a CSV file: values is the float matrix of
    its data rows, parsed by np.loadtxt as the lines are read, and linenos
    holds the file line of each row.

    Blank lines are skipped and the body of each '#' line goes to
    on_comment(body, lineno). The first other line is the header: its cells
    are stripped and may not repeat. Every later line must hold as many cells
    as the header, each a number; a file without a header row, or with a line
    that is not such a row, raises a DatasetFormatError naming it.
    """
    header, linenos = [], []
    lines = _data_lines(path, what, on_comment, header, linenos)
    first = next(lines, None)
    if first is None:               # no data row, which np.loadtxt would warn about
        return header, np.empty((0, len(header))), linenos
    try:
        values = np.loadtxt(itertools.chain([first], lines), dtype=float, ndmin=2, **_LOADTXT)
    except DatasetFormatError:      # raised by on_comment, passed on as it is
        raise
    except ValueError:
        values = None
    if values is None or values.shape != (len(linenos), len(header)):
        lines.close()
        raise _row_error(path, what, header)
    return header, values, linenos


def _data_lines(path, what, on_comment, header, linenos):
    """_read_table's line loop: fills header from the header row, then yields
    each data line with its line ending stripped, appending its line number
    to linenos first."""
    with open(path, "r", newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            if line.startswith("#"):
                if on_comment is not None:
                    on_comment(line[1:].strip(), lineno)
                continue
            if header:
                linenos.append(lineno)
                yield line
                continue
            header.extend(c.strip() for c in next(csv.reader([line])))
            for k, name in enumerate(header):
                if name in header[:k]:
                    raise DatasetFormatError(f"line {lineno}: repeated column {name!r}")
    if not header:
        raise DatasetFormatError(f"{what} has no header row")


def _row_error(path, what, header) -> DatasetFormatError:
    """The error naming the first data line of a file that np.loadtxt did not
    read as one row of len(header) floats: its cell count, or the first cell
    that is not a number."""
    linenos = []
    for line in _data_lines(path, what, None, [], linenos):
        try:
            if np.loadtxt([line], dtype=float, ndmin=2, **_LOADTXT).shape[1] == len(header):
                continue
        except ValueError:
            pass
        cells = np.loadtxt([line], dtype=str, ndmin=1, **_LOADTXT)
        if len(cells) != len(header):
            return DatasetFormatError(
                f"line {linenos[-1]}: expected {len(header)} cells, found {len(cells)}")
        for j, name in enumerate(header):
            try:
                np.loadtxt([line], dtype=float, usecols=j, **_LOADTXT)
            except ValueError:
                return DatasetFormatError(f"line {linenos[-1]}: non-numeric value "
                                          f"{str(cells[j])!r} in column {name!r}")
    # every line reads alone, so an open quote joined lines
    return DatasetFormatError(f"{what} has a quoted cell that runs past its line")


def _write_table(path, header, rows, meta=None, trailer=None):
    """Write a CSV file: a '#key: value' line per meta entry, the header, one
    line per row of values, and a '#key: value' line per trailer entry. Each
    value is written as _text gives it; cells are never quoted."""
    lines = [f"#{k}: {_text(v)}" for k, v in (meta or {}).items()]
    lines.append(",".join(header))
    lines.extend(",".join(map(_text, cells)) for cells in rows)
    lines.extend(f"#{k}: {_text(v)}" for k, v in (trailer or {}).items())
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# --- dataset ---------------------------------------------------------------

def parse_dataset_csv(path, require_responses: bool = True):
    """Read a dataset file into a Dataset.

    Header row is required; a `y` column (continuous) and a `z` column (0/1)
    are expected, all other columns are predictors in file order. An optional
    `#orders:` comment, at most one, supplies the Dataset's per-predictor
    effect orders (default all 1). With require_responses=False either
    response column may be absent; the Dataset then holds None for it.
    """
    orders = {}                 # "spec", "line" of the #orders: comment

    def on_comment(body, lineno):
        if not body.startswith("orders:"):
            return
        if orders:
            raise DatasetFormatError(f"line {lineno}: repeated #orders: entry, "
                                     f"first given on line {orders['line']}")
        try:
            spec = np.array([int(tok) for tok in body[len("orders:"):].split(",")], dtype=int)
        except (ValueError, OverflowError):
            raise DatasetFormatError(f"line {lineno}: malformed #orders: entry")
        if (spec < 0).any():
            k = int(np.argmax(spec < 0))
            raise DatasetFormatError(f"line {lineno}: #orders: entry {k + 1} is {spec[k]}, "
                                     "but effect orders must be nonnegative")
        orders.update(spec=spec, line=lineno)

    header, values, linenos = _read_table(path, "file", on_comment)
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

    # every cell must be finite and every z 0 or 1; the first bad cell is named
    ok = np.isfinite(values)
    if has_z:
        ok[:, z_idx] = np.isin(values[:, z_idx], (0, 1))
    if not ok.all():
        k, j = divmod(int(np.argmin(ok)), ok.shape[1])
        rule = "be 0 or 1" if j == z_idx else "be finite"
        raise DatasetFormatError(f"line {linenos[k]}: column {header[j]!r} must {rule}, "
                                 f"found {_text(values[k, j])}")
    # C-ordered copies (take, not fancy indexing): BLAS may round a strided
    # or Fortran-ordered operand differently
    X = values.take(pred_idx, axis=1)
    y = values.take(y_idx, axis=1) if has_y else None
    z = values.take(z_idx, axis=1).astype(int) if has_z else None

    columns = [header[j] for j in pred_idx]
    if orders and len(orders["spec"]) != len(pred_idx):
        raise DatasetFormatError(f"line {orders['line']}: #orders: lists {len(orders['spec'])} "
                                 f"entries for {len(pred_idx)} predictors")
    return Dataset(X, y, z, columns=columns,
                   orders=EffectOrders(orders["spec"]) if orders else None)


def write_dataset_csv(path, data: Dataset, meta=None):
    """Write a dataset file: its meta lines, then an '#orders:' line holding
    data.orders, then the predictor columns, y and z."""
    meta = dict(meta or {}, orders=",".join(map(_text, data.orders.orders.tolist())))
    _write_table(path, list(data.columns) + ["y", "z"],
                 (x + [y, z] for x, y, z in zip(data.X.tolist(), data.y.tolist(),
                                                data.z.astype(int).tolist())), meta=meta)


# --- chain -----------------------------------------------------------------

def write_chain_csv(path, chain: Draws, meta=None):
    _write_table(path, ["iteration"] + chain.names,
                 ([i] + row for i, row in enumerate(chain.draws.tolist())), meta=meta)


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
    """Read a chain file. Every cell must be a number; columns other than the
    draw columns are then ignored."""
    header, values, _ = _read_table(path, "chain file")
    idx = _draw_column_index(header)
    if not len(values):
        raise DatasetFormatError("chain file has no draws")
    draws = Draws(values.take(idx, axis=1))
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
                                 f"{_text(chain.draws[k, j])}, outside ({_text(lo)}, {_text(hi)})")


# --- summaries, diagnostics, histograms ------------------------------------

def write_summary_csv(path, summary: PosteriorSummary, meta=None):
    _write_table(path, ["parameter", "mean", "sd", "q2.5", "q97.5"],
                 zip(summary.names, summary.mean.tolist(), summary.sd.tolist(),
                     summary.q025.tolist(), summary.q975.tolist()), meta=meta)


def write_diagnostics_csv(path, acceptance, steps, loo_fallbacks, ess, acf_table, meta=None):
    """acceptance: {target: rate}; steps: {target: final MH step size};
    loo_fallbacks: count of leave-one-out fallback evaluations; ess:
    {param: value}; acf_table: {param: array of autocorrelations by lag}."""
    rows = [["acceptance", target, "", float(rate)] for target, rate in acceptance.items()]
    rows += [["mh_step", target, "", float(step)] for target, step in steps.items()]
    rows.append(["loo_fallbacks", "u", "", int(loo_fallbacks)])
    rows += [["ess", name, "", float(value)] for name, value in ess.items()]
    rows += [["acf", name, lag, float(value)]
             for name, values in acf_table.items() for lag, value in enumerate(values)]
    _write_table(path, ["record", "name", "lag", "value"], rows, meta=meta)


_HIST_BINS = 30


def _histogram_edges(x: np.ndarray) -> np.ndarray:
    """np.histogram's own edges, _HIST_BINS equal bins over [min, max] (+-0.5
    about a constant column), where those are finite and strictly increasing.
    Else, where +-0.5 is below the spacing of the floats (a constant beyond
    2^53) or max - min overflows, _HIST_BINS equal bins over the span about its
    midpoint, widened to two floats' spacing per bin and kept inside the float
    range."""
    lo, hi = float(x.min()), float(x.max())
    with np.errstate(over="ignore", invalid="ignore"):
        edges = np.linspace(lo, hi, _HIST_BINS + 1) if lo < hi else \
            np.linspace(lo - 0.5, hi + 0.5, _HIST_BINS + 1)
    if np.isfinite(edges).all() and (edges[1:] > edges[:-1]).all():
        return edges
    half = max(hi / 2 - lo / 2, _HIST_BINS * math.ulp(lo / 2 + hi / 2))
    big = sys.float_info.max
    mid = min(max(lo / 2 + hi / 2, half - big), big - half)
    edges = mid + half * np.linspace(-1.0, 1.0, _HIST_BINS + 1)
    edges[0], edges[-1] = min(edges[0], lo), max(edges[-1], hi)
    return edges


def write_histogram_csv(path, draws, meta=None):
    draws = np.asarray(draws, dtype=float)
    counts, edges = np.histogram(draws, bins=_histogram_edges(draws))
    _write_table(path, ["bin_left", "bin_right", "count"],
                 zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist()), meta=meta)


def write_predictions_csv(path, y_hat, p_z1, z_hat, y_true=None, z_true=None,
                          losses=None, meta=None):
    columns = {"row": range(len(y_hat)), "y_hat": y_hat, "p_z1": p_z1, "z_hat": z_hat,
               "y_true": y_true, "z_true": z_true}
    columns = {k: np.asarray(v, dtype=int if k in ("row", "z_hat", "z_true") else float).tolist()
               for k, v in columns.items() if v is not None}
    _write_table(path, list(columns), zip(*columns.values()), meta=meta,
                 trailer={k: float(v) for k, v in (losses or {}).items()})


def write_truth_csv(path, rep, meta=None):
    """The true coefficients, with the true rho and sigma2 as the last two
    provenance lines; a meta entry of either name is written there once."""
    truth = {"rho_true": float(rep.rho_true), "sigma2_true": float(rep.sigma2_true)}
    meta = {k: v for k, v in (meta or {}).items() if k not in truth}
    _write_table(path, ["index", "beta1_true", "beta2_true"],
                 zip(range(1, len(rep.beta1_true) + 1), rep.beta1_true.tolist(),
                     rep.beta2_true.tolist()), meta={**meta, **truth})
