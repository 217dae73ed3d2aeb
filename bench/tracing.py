"""Span tracing for the traced benchmark run.

The program is not edited: public blqq functions are replaced, for the length
of one operation, by wrappers installed at the namespace each caller looks the
name up in. ``run_chain`` finds its callees among the globals of
``blqq.sampler``; the CLI finds its helpers among the names ``blqq.cli``
imported; ``fit_sm_b`` finds ``run_chain`` in ``blqq.baselines``; the CLI
reaches the CSV functions as attributes of ``blqq.io``.

Per-observation private helpers (``_trunc_std_lower``, ``_draw_halfline``)
are deliberately left alone: their cost stays inside ``sampler.u_sweep``.
Each wrapper records a span (name, start, end, parent span) and a call
count; a span's self time is its duration minus the durations of its child
spans.
"""
from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

# Names run_chain looks up among blqq.sampler globals -> span name.
SAMPLER_CALLEES = {
    "init_state": "sampler.init",
    "compute_beta_full_conditional": "sampler.beta_fc",
    "sample_u_sweep": "sampler.u_sweep",
    "sample_beta": "sampler.beta_draw",
    "sample_sigma2_mh": "sampler.mh",
    "sample_rho_mh": "sampler.mh",
    "sample_tau2": "sampler.hyper",
    "sample_r_mh": "sampler.hyper",
}

# Names blqq.cli imported (or defines) and calls through its globals.
CLI_NAMES = {
    "run_chain": "sampler.run_chain",
    "fit_sm_b": "baselines.fit_sm_b",
    "effective_sample_size": "metrics.ess",
    "summarize_draws": "metrics.summarize_draws",
    "gen_replicate": "simulate.gen_replicate",
    "predict_draws": "cli.predict_draws",
    "evaluate_fit": "cli.evaluate_fit",
}

IO_PREFIXES = {"read_": "io.read", "parse_": "io.read", "write_": "io.write"}


class TraceError(RuntimeError):
    """A wrapped name is missing or a call count differs from the expected one."""


class Tracer:
    """Installs the wrappers, records spans, and aggregates them per operation."""

    def __init__(self, blqq_modules):
        self.mods = blqq_modules            # {"sampler": module, "cli": ..., ...}
        self.spans = []                     # [name, start, end, parent index]
        self.stack = []
        self.calls = Counter()              # "module.function" -> calls
        self.io_bytes = Counter()           # "io.read" / "io.write" -> bytes
        self.chains = []                    # (ChainOutput, run_chain span seconds)
        self._saved = []

    # --- installation ------------------------------------------------------

    def _targets(self):
        sampler, cli, baselines, bio = (self.mods[k] for k in ("sampler", "cli", "baselines", "io"))
        for name, span in SAMPLER_CALLEES.items():
            yield sampler, name, span, None
        for name, span in CLI_NAMES.items():
            yield cli, name, span, (self._keep_chain if name == "run_chain" else None)
        yield baselines, "run_chain", "sampler.run_chain", self._keep_chain
        io_names = sorted(n for n in vars(bio) if callable(getattr(bio, n))
                          and any(n.startswith(p) for p in IO_PREFIXES))
        for name in io_names:
            span = next(s for p, s in IO_PREFIXES.items() if name.startswith(p))
            yield bio, name, span, self._count_bytes

    def install(self):
        for module, name, span, on_return in self._targets():
            if not hasattr(module, name):
                raise TraceError(f"{module.__name__}.{name} no longer exists; update the benchmark")
            original = getattr(module, name)
            self._saved.append((module, name, original))
            key = f"{module.__name__.split('.')[-1]}.{name}"
            setattr(module, name, self._wrap(original, span, key, on_return))

    def uninstall(self):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _wrap(self, fn, span, key, on_return):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            idx = len(self.spans)
            self.spans.append([span, 0.0, 0.0, self.stack[-1] if self.stack else None])
            self.stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.spans[idx][1] = t0
                self.spans[idx][2] = t1
            if on_return is not None:
                on_return(span, args, out, t1 - t0)
            return out
        return wrapper

    def _keep_chain(self, span, args, out, seconds):
        self.chains.append((out, seconds))

    def _count_bytes(self, span, args, out, seconds):
        self.io_bytes[span] += os.path.getsize(args[0])

    # --- aggregation -------------------------------------------------------

    def take_op(self):
        """Return and clear this operation's spans, calls, bytes and chains.

        Spans become {name: [calls, total seconds, self seconds]}.
        """
        child = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        by_name = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, t0, t1, _) in enumerate(self.spans):
            agg = by_name[name]
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += t1 - t0 - child[idx]
        out = (dict(by_name), dict(self.calls), dict(self.io_bytes), list(self.chains))
        self.spans.clear()
        self.calls.clear()
        self.io_bytes.clear()
        self.chains.clear()
        return out


def check_calls(calls, spans, expected, min_spans):
    """Fail loudly when a wrapped function ran an unexpected number of times.

    ``expected`` maps "module.function" to an exact count; every sampler and
    CLI name absent from it must not have run at all. ``min_spans`` maps a
    span name to a lower bound on its calls, for the CSV functions, whose
    exact set may change without changing what the layer does.
    """
    exact_keys = {f"sampler.{n}" for n in SAMPLER_CALLEES} | {f"cli.{n}" for n in CLI_NAMES}
    exact_keys.add("baselines.run_chain")
    wrong = [f"{k}: got {calls.get(k, 0)}, expected {expected.get(k, 0)}"
             for k in sorted(exact_keys) if calls.get(k, 0) != expected.get(k, 0)]
    wrong += [f"{span}: got {spans.get(span, [0])[0]}, expected at least {lo}"
              for span, lo in min_spans.items() if spans.get(span, [0])[0] < lo]
    if wrong:
        raise TraceError("call counts off: " + "; ".join(wrong))
