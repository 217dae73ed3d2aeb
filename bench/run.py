"""blqq benchmark: one workload, run in-process through the public CLI.

    python3 bench/run.py --workload fit_tall --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there. Operations repeat until the next one would end after
``--seconds``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it is a JSON record of the environment and the per-operation
detail. See bench/README.md for the workloads and every metric.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

# One BLAS thread: the process then uses one of the machine's two cores, and
# the other absorbs interpreter and system noise. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("fit_tall", "replicate_wide", "posterior"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import blqq from the checkout's src/ (never an installed copy); returns
    (modules, seconds taken)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "blqq", "__init__.py")):
        raise SystemExit(f"bench: no blqq sources under {src}; run from a source checkout")
    sys.dont_write_bytecode = True      # leave the checkout as found, and every run compiles alike
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import blqq.cli
    seconds = time.perf_counter() - t0
    if not os.path.abspath(blqq.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: imported blqq from {blqq.__file__}, not from {src}")
    mods = {name: sys.modules[f"blqq.{name}"]
            for name in ("cli", "sampler", "baselines", "io", "metrics")}
    return mods, seconds


def environment():
    import numpy
    import scipy
    env = {"cpu": "unknown", "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "openblas": None, "blas_threads": None,
           "commit": git_commit()}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        env["openblas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    env["blas_threads"] = blas_threads()
    return env


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def main(argv=None):
    args = parse_args(argv)
    mods, import_s = import_program()
    import layers
    import workloads
    from tracing import Tracer

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        wl = workloads.WORKLOADS[args.workload](mods["cli"], args.seed)
        gen_times = []
        for rep in range(SETUP_REPEATS):
            workloads.clear(work)
            os.makedirs(work)
            t0 = time.perf_counter()
            wl.prepare(work)
            gen_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(gen_times)

        wl.warm_up(os.path.join(work, "warm_up"))
        workloads.clear(os.path.join(work, "warm_up"))

        tracer = Tracer(mods) if args.trace else None
        walls, traced_walls, rates, per_op = [], [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        k = 1
        while True:
            traced = tracer is not None and k % 2 == 0
            out = os.path.join(work, f"op{k}")
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                n_cmd, n_fail = wl.run_op(k, out)
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            attempted += n_cmd
            failed += n_fail
            (traced_walls if traced else walls).append(wall)
            if traced:
                per_op.append(layers.op_record(tracer.take_op(), wl, mods["metrics"]))
            else:
                rates.append(wl.work_units() / wall)
            workloads.clear(out)
            # Stop when the next operation would end nearer past the deadline than before it.
            cycle = (time.perf_counter() - start) / k
            if time.perf_counter() - start + cycle / 2 > args.seconds and (tracer is None or k >= 2):
                break
            k += 1

        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": environment(), "import_s": import_s,
                  "input_gen_s": gen_times, "op_wall_s": walls, "traced_op_wall_s": traced_walls,
                  "work_units_per_op": wl.work_units(), "fail_rate": failed / attempted,
                  "errors": wl.errors[:20], **wl.notes}
        if args.trace:
            metrics, extra = layers.summarize(per_op, wl)
            metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                           - statistics.median(walls), "s")
            detail.update(extra)
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (statistics.median(walls), "s"),
                "work_per_s": (statistics.median(rates), "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
    finally:
        workloads.clear(work)
        if os.path.isdir(os.path.dirname(work)) and not os.listdir(os.path.dirname(work)):
            os.rmdir(os.path.dirname(work))

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
