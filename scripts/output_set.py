#!/usr/bin/env python3
"""Write the fixed-seed output file set of a blqq checkout, or compare two.

    python3 scripts/output_set.py <checkout> <out_dir>
    python3 scripts/output_set.py --compare <before_dir> <after_dir>

Runs the CLI of <checkout> (imported from <checkout>/src) through every
command at fixed seeds:

- simulate at p=10 with 300 train and 200 test rows;
- fit of that train file with --model blqq and --model smb, 600 iterations;
- predict on the test file and summarize, for each fit;
- predict with the blqq fit on 2000 test rows from a second simulate, so that
  rows x stored draws (2000 x 500) spans several of predict_draws' row blocks;
- replicate at p=30 with 2 replicates, 600 iterations;
- simulate at p=10 with 600 train rows, and fit of that train file with
  --model blqq and --model smb, 600 iterations: above sampler._SWEEP_MAX_N
  rows, so these chains draw u given beta in one array step;
- fit of high_leverage.csv, which this script writes: 60 rows whose x2 is
  0 except 1e6 at row 18 (from 0), so that row's leave-one-out moments come
  from the sweep's fallback on every scan (diagnostics.csv reads
  loo_fallbacks 600), 600 iterations;
- scripts/run_case_study.py with one split, 300 iterations, writing its
  chain and splits.csv.

Run it on two checkouts and compare with `diff -r`: a change that leaves the
draws alone must leave every file byte-identical. BLAS may round the
prediction products differently with its thread count, so the commands run
with OPENBLAS_NUM_THREADS=1, as the benchmark sets it.

A change that moves the draws at rounding level only is compared with
--compare. For each file that differs it prints the largest absolute
difference between numeric cells, the values of `#key: value` lines
included. It exits 1 when the file sets or a file's line counts differ, or
when a cell differs that must match exactly: text, an integer (a count or a
z_hat; floats are always written with a '.' or an exponent), or a float that
is not finite.
"""
import math
import os
import subprocess
import sys

import numpy as np


def _cell_diff(a, b):
    """|a - b| of two float cells, or None where they differ but must not."""
    if a == b:
        return 0.0
    if any(cell.strip().lstrip("+-").isdigit() for cell in (a, b)):
        return None
    try:
        d = abs(float(a) - float(b))
    except ValueError:
        return None
    return d if math.isfinite(d) else None


def _file_diff(before, after):
    """Largest cell difference of two files, or a message naming what differs."""
    with open(before) as fb, open(after) as fa:
        lines_b, lines_a = fb.read().splitlines(), fa.read().splitlines()
    if len(lines_b) != len(lines_a):
        return f"{len(lines_b)} lines against {len(lines_a)}"
    worst = 0.0
    for k, (lb, la) in enumerate(zip(lines_b, lines_a), start=1):
        # a "#key: value" line has the cells key and value
        cells_b, cells_a = (line.split(": ", 1) if line.startswith("#") else line.split(",")
                            for line in (lb, la))
        diffs = [_cell_diff(b, a) for b, a in zip(cells_b, cells_a)]
        if len(cells_b) != len(cells_a) or None in diffs:
            return f"line {k} differs beyond rounding: {lb!r} against {la!r}"
        worst = max([worst, *diffs])
    return worst


def compare(before, after):
    """Print how the file set under after differs from the one under before;
    return 1 where it differs beyond rounding, else 0."""
    sets = [{os.path.relpath(os.path.join(d, f), top)
             for d, _, files in os.walk(top) for f in files} for top in (before, after)]
    status = 0
    for rel in sorted(sets[0] ^ sets[1]):
        print(f"{rel}: only under {before if rel in sets[0] else after}")
        status = 1
    common = sorted(sets[0] & sets[1])
    identical = 0
    for rel in common:
        diff = _file_diff(os.path.join(before, rel), os.path.join(after, rel))
        if isinstance(diff, str):
            print(f"{rel}: {diff}")
            status = 1
        elif diff == 0.0:
            identical += 1
        else:
            print(f"{rel}: largest absolute difference {diff:.2g}")
    print(f"{identical} of {len(common)} common files identical cell by cell")
    return status


def write_high_leverage(path):
    """60 rows of x1, x2, y, z from seed 5: x1 standard normal, x2 = 0 except
    1e6 at row 18, y = 1.5 x1 + N(0, 1), z = 1{x1 + N(0, 1) > 0}."""
    rng = np.random.default_rng(5)
    x1 = rng.standard_normal(60)
    x2 = np.zeros(60)
    x2[18] = 1e6
    y = 1.5 * x1 + rng.standard_normal(60)
    z = (x1 + rng.standard_normal(60) > 0).astype(int)
    with open(path, "w") as f:
        f.write("x1,x2,y,z\n")
        f.writelines(f"{a!r},{b!r},{c!r},{d}\n" for a, b, c, d
                     in zip(x1.tolist(), x2.tolist(), y.tolist(), z.tolist()))


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(*sys.argv[2:]))
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    checkout, out = (os.path.abspath(a) for a in sys.argv[1:])
    src = os.path.join(checkout, "src")
    if not os.path.isfile(os.path.join(src, "blqq", "cli.py")):
        sys.exit(f"no blqq sources under {src}")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")

    def run(*cmd):
        cmd = [sys.executable, *map(str, cmd)]
        if subprocess.run(cmd, env=env).returncode != 0:
            sys.exit(f"failed: {' '.join(cmd[1:])}")

    def blqq(*args):
        run("-m", "blqq.cli", *args)

    chain = ["--iterations", 600, "--burn-in", 100, "--seed", 0]
    sims = os.path.join(out, "sims")
    blqq("simulate", "--p", 10, "--n-train", 300, "--n-test", 200, "--seed", 0,
         "--out-dir", sims)
    setting = os.path.join(sims, "rho0.85_p10_s0.2")
    for model in ("blqq", "smb"):
        fit = os.path.join(out, f"fit_{model}")
        blqq("fit", "--data", os.path.join(setting, "rep0_train.csv"), "--model", model,
             *chain, "--out-dir", fit)
        blqq("predict", "--chain", os.path.join(fit, "chain.csv"),
             "--data", os.path.join(setting, "rep0_test.csv"),
             "--out", os.path.join(out, f"predict_{model}.csv"))
        blqq("summarize", "--chain", os.path.join(fit, "chain.csv"),
             "--out", os.path.join(out, f"summarize_{model}.csv"))
    wide = os.path.join(out, "sims_wide")
    blqq("simulate", "--p", 10, "--n-train", 300, "--n-test", 2000, "--seed", 1,
         "--out-dir", wide)
    blqq("predict", "--chain", os.path.join(out, "fit_blqq", "chain.csv"),
         "--data", os.path.join(wide, "rho0.85_p10_s0.2", "rep0_test.csv"),
         "--out", os.path.join(out, "predict_blqq_wide.csv"))
    blqq("replicate", "--p", 30, "--replicates", 2, *chain,
         "--out-dir", os.path.join(out, "replicate"))
    tall = os.path.join(out, "sims_tall")
    blqq("simulate", "--p", 10, "--n-train", 600, "--n-test", 10, "--seed", 2,
         "--out-dir", tall)
    for model in ("blqq", "smb"):
        blqq("fit", "--data", os.path.join(tall, "rho0.85_p10_s0.2", "rep0_train.csv"),
             "--model", model, *chain, "--out-dir", os.path.join(out, f"fit_tall_{model}"))
    leverage = os.path.join(out, "high_leverage.csv")
    write_high_leverage(leverage)
    blqq("fit", "--data", leverage, *chain, "--out-dir", os.path.join(out, "fit_leverage"))
    run(os.path.join(checkout, "scripts", "run_case_study.py"), "--splits", 1,
        "--iterations", 300, "--burn-in", 100, "--out-dir", os.path.join(out, "case_study"))
    n_files = sum(len(files) for _, _, files in os.walk(out))
    print(f"{n_files} files under {out}")


if __name__ == "__main__":
    main()
