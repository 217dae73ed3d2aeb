#!/usr/bin/env python3
"""Where one scan of blqq's sampler spends its time, statement by statement.

    python3 scripts/scan_profile.py <checkout> [--n 100] [--p 30] [--iterations 800] [--seed 1]

Imports blqq from <checkout>/src, with one BLAS thread as scripts/mixing.py
runs it, and builds timed copies of blqq.sampler._iterate and
blqq.sampler.sample_u_sweep from their syntax trees at run time, so the
sources are not edited. Every statement that runs once per call is timed:
each statement of the function body and, recursively, of the with and if
blocks in it; a loop is timed as a whole. A return statement is timed up to
the value it returns. The copies are compiled against a copy of the
sampler's globals, in which _iterate finds the timed sample_u_sweep, and
run_chain calls the timed _iterate for the length of the run.

It runs a joint chain and an smb chain (rho pinned at 0) of run_chain on
gen_replicate(SimulationScenario(p, sparsity=0.2, rho_true=0.85, n_train=n,
base_seed=seed), 0).train with every effect order 1 and the default prior,
and prints for each chain its seconds and, largest first, the microseconds
per scan of each statement that ran, with its line in sampler.py. The
figure of _iterate's call of sample_u_sweep holds the timed statements of
sample_u_sweep too. p must make 0.2 p a whole number. It calls
run_chain(data, prior, cfg); a checkout older than the Dataset that carries
its effect orders, whose run_chain still takes an orders argument, needs its
own copy of this script.

The timer costs each statement two perf_counter calls and one list update,
which it adds to that statement's figure: 0.15 us per statement, about 7 us
of a sweep-path scan's 60-odd timed statements (about 1.5% of a 500 us scan
at n=100, p=30), measured on a 2-core x86_64 host with Python 3.11. The
script measures it at start-up and prints it.
"""
import argparse
import ast
import inspect
import os
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"    # before numpy loads

TIMED = ("_iterate", "sample_u_sweep")


class _Timer(ast.NodeTransformer):
    """Wraps each once-per-call statement of a function in a clock interval
    that adds to _acc[k]; labels[k] names the statement."""

    def __init__(self, fn_name, source_lines, labels):
        self.fn_name = fn_name
        self.lines = source_lines
        self.labels = labels

    def _slot(self, stmt):
        self.labels.append(f"{self.fn_name}:{stmt.lineno} {self.lines[stmt.lineno - 1].strip()}")
        return len(self.labels) - 1

    def _block(self, body):
        out = []
        for stmt in body:
            if isinstance(stmt, (ast.With, ast.If)):
                stmt.body = self._block(stmt.body)
                if isinstance(stmt, ast.If):
                    stmt.orelse = self._block(stmt.orelse)
                out.append(stmt)
            elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                out.append(stmt)                # a docstring
            else:
                out.extend(self._timed(stmt))
        return out

    def _timed(self, stmt):
        k = self._slot(stmt)
        start = ast.parse("_t0 = _clock()").body
        stop = ast.parse(f"_acc[{k}] += _clock() - _t0").body
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            keep = ast.Assign(targets=[ast.Name("_ret", ast.Store())], value=stmt.value)
            return [*start, keep, *stop, ast.Return(ast.Name("_ret", ast.Load()))]
        return [*start, stmt, *stop]

    def visit_FunctionDef(self, node):
        node.body = self._block(node.body)
        return node


def _timed_copies(sampler, acc):
    """{name: timed function} for TIMED, sharing one globals copy, and the
    statement labels, indexed like acc."""
    path = inspect.getsourcefile(sampler)
    with open(path) as fh:
        lines = fh.read().splitlines()
    ns = dict(vars(sampler), _clock=time.perf_counter, _acc=acc)
    labels = []
    for name in TIMED:
        fn = getattr(sampler, name)
        src, start = inspect.getsourcelines(fn)
        tree = ast.parse("".join(src))
        ast.increment_lineno(tree, start - 1)
        tree = ast.fix_missing_locations(_Timer(name, lines, labels).visit(tree))
        exec(compile(tree, path, "exec"), ns)
    acc.extend([0.0] * len(labels))
    return {name: ns[name] for name in TIMED}, labels


def _timer_cost(rounds=200_000):
    """Seconds the timer adds to one statement: the interval it wraps
    around `pass`, timed as the copies time their statements."""
    acc = [0.0]
    clock = time.perf_counter
    tic = clock()
    for _ in range(rounds):
        t0 = clock()
        pass
        acc[0] += clock() - t0
    loop = clock() - tic
    tic = clock()
    for _ in range(rounds):
        pass
    return (loop - (clock() - tic)) / rounds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout")
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--p", type=int, default=30)
    ap.add_argument("--iterations", type=int, default=800)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    src = os.path.join(os.path.abspath(args.checkout), "src")
    if not os.path.isfile(os.path.join(src, "blqq", "sampler.py")):
        sys.exit(f"no blqq sources under {src}")
    sys.path.insert(0, src)
    import blqq.sampler as sampler
    from blqq.model import ChainConfig, PriorConfig
    from blqq.simulate import SimulationScenario, gen_replicate

    print(f"timer cost: {1e6 * _timer_cost():.3f} us per timed statement")
    data = gen_replicate(SimulationScenario(
        p=args.p, sparsity=0.2, rho_true=0.85, n_train=args.n, replicates=1,
        base_seed=args.seed), 0).train
    original = sampler._iterate
    for model, freeze in (("joint", False), ("smb", True)):
        acc = []
        copies, labels = _timed_copies(sampler, acc)
        cfg = ChainConfig(iterations=args.iterations, burn_in=args.iterations // 4,
                          seed=args.seed, freeze_rho_at_zero=freeze)
        sampler._iterate = copies["_iterate"]
        try:
            tic = time.perf_counter()
            sampler.run_chain(data, PriorConfig(), cfg)
            seconds = time.perf_counter() - tic
        finally:
            sampler._iterate = original
        print(f"\n{model} chain, n={args.n} p={args.p}, {args.iterations} scans: "
              f"{seconds:.3f} s, {1e6 * seconds / args.iterations:.1f} us per scan")
        for k in sorted(filter(acc.__getitem__, range(len(labels))), key=acc.__getitem__,
                        reverse=True):
            print(f"{1e6 * acc[k] / args.iterations:10.2f} us  {labels[k][:110]}")


if __name__ == "__main__":
    main()
