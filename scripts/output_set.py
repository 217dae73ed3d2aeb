#!/usr/bin/env python3
r"""Write the fixed-seed output file set of a blqq checkout.

    python3 scripts/output_set.py <checkout> <out_dir>

Runs the CLI of <checkout> (imported from <checkout>/src) through every
command at fixed seeds:

- simulate at p=10 with 300 train and 200 test rows;
- fit of that train file with --model blqq and --model smb, 600 iterations;
- predict on the test file and summarize, for each fit;
- predict with the blqq fit on 2000 test rows from a second simulate, so that
  rows x stored draws (2000 x 500) spans several of predict_draws' row blocks;
- replicate at p=30 with 2 replicates, 600 iterations.

Run it on two checkouts and compare with `diff -r`: a change that leaves the
draws alone must leave every file byte-identical. BLAS may round the
prediction products differently with its thread count, so the commands run
with OPENBLAS_NUM_THREADS=1, as the benchmark sets it. A change that only
drops or adds `#` provenance lines is compared with those lines ignored; for
the MH settings no longer written since the step sizes became a constant:

    diff -r -I '^#\(mh_step_\(sigma2\|rho\|r\)\|adapt_during_burnin\): ' before after

and for the hyper start values no longer written since they became a constant:

    diff -r -I '^#init_\(tau1_sq\|tau2_sq\|r1\|r2\): ' before after
"""
import os
import subprocess
import sys


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    checkout, out = (os.path.abspath(a) for a in sys.argv[1:])
    src = os.path.join(checkout, "src")
    if not os.path.isfile(os.path.join(src, "blqq", "cli.py")):
        sys.exit(f"no blqq sources under {src}")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")

    def blqq(*args):
        cmd = [sys.executable, "-m", "blqq.cli", *map(str, args)]
        if subprocess.run(cmd, env=env).returncode != 0:
            sys.exit(f"failed: blqq {' '.join(map(str, args))}")

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
    n_files = sum(len(files) for _, _, files in os.walk(out))
    print(f"{n_files} files under {out}")


if __name__ == "__main__":
    main()
