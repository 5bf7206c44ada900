"""Tracing hooks: spans around calls into gkpkit's modules.

A span records its name, start, end, parent span and pass id, plus a few
counts taken at the same boundary (cache hit, Nelder-Mead evaluations, grid
points, bytes written). Spans stay in memory; child.py writes them out when
the command ends. No file under src/ is edited: the hooks replace module
attributes in the running process only.

A hooked name that does not exist (later versions may remove it) is reported
as absent, and the metrics built on it are left out instead of failing.
"""

import contextlib
import functools
import os
import sys
import time


class Recorder:
    """In-memory span list with a stack of the spans currently open."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, cpu=False):
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "pass": self.pass_id,
        }
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        cpu_start = time.process_time() if cpu else None
        try:
            yield span
        except Exception:
            span["failed"] = True
            raise
        finally:
            if cpu:
                span["cpu"] = time.process_time() - cpu_start
            span["end"] = time.perf_counter()
            self._open.pop()


def _cache_hits(func):
    info = getattr(func, "cache_info", None)
    return info().hits if info else None


def _mark_cache_hit(span, func, hits_before, args, kwargs, result):
    if hits_before is not None:
        span["hit"] = _cache_hits(func) > hits_before


def _count_nfev(span, func, before, args, kwargs, result):
    # Evaluation counts come from the returned result: wrapping the
    # objective itself would cost a Python call per evaluation.
    span["nfev"] = int(result.nfev)


def _grid_stats(span, func, before, args, kwargs, result):
    span["points"] = int(result.values.size)
    span["mass"] = float(result.mass())


def _bytes_written(span, func, before, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    span["bytes"] = os.path.getsize(path)


# (module, attribute, span name, options). A function defined in the named
# module is replaced wherever gkpkit imported it; a third-party function
# (scipy's eigh, minimize) only in the named module.
HOOKS = (
    ("bloch", "sample_sphere", "bloch.atlas", {}),
    ("bloch", "order_greedy", "bloch.atlas", {}),
    ("sweep", "run_sweep", "sweep.run_sweep", {}),
    ("sweep", "eigh", "sweep.eigh", {"cpu": True}),
    ("operators", "build_operator_set", "operators.build_operator_set",
     {"before": _cache_hits, "after": _mark_cache_hit}),
    ("fock", "displacement_matrix", "fock.displacement_matrix", {}),
    ("fock", "ground_state", "fock.ground_state", {"cpu": True}),
    ("cli", "load_sweep", "cli.load_sweep", {}),
    ("analysis", "regression_per_cutoff", "analysis.regression_per_cutoff", {}),
    ("analysis", "ksg_mutual_information", "analysis.ksg_mutual_information", {}),
    ("analysis", "extrapolate_slope", "analysis.extrapolate_slope", {}),
    ("analysis", "_fit_window", "analysis.fit_windows", {}),
    ("gaussian", "minimize_over_gaussians", "gaussian.minimize_over_gaussians", {}),
    ("gaussian", "minimize", "gaussian.nelder_mead", {"after": _count_nfev}),
    ("homodyne", "estimate_witness", "homodyne.estimate_witness", {}),
    ("homodyne", "sample_quadrature", "homodyne.sample_quadrature", {}),
    ("wigner", "wigner", "wigner.wigner", {"after": _grid_stats}),
    ("io_utils", "write_csv", "io_utils.write", {"after": _bytes_written}),
    ("io_utils", "write_json", "io_utils.write", {"after": _bytes_written}),
)


def _wrap(recorder, name, func, cpu=False, before=None, after=None):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        state = before(func) if before else None
        with recorder.span(name, cpu=cpu) as span:
            result = func(*args, **kwargs)
        if after:
            after(span, func, state, args, kwargs, result)
        return result

    return traced


def install(recorder):
    """Hook every name in HOOKS that exists; return the span names left absent."""
    package = [
        mod for key, mod in sys.modules.items()
        if key == "gkpkit" or key.startswith("gkpkit.")
    ]
    installed = set()
    for module, attribute, name, options in HOOKS:
        mod = sys.modules.get(f"gkpkit.{module}")
        func = getattr(mod, attribute, None)
        if not callable(func):
            continue
        traced = _wrap(recorder, name, func, **options)
        owned = getattr(func, "__module__", None) == mod.__name__
        for target in package if owned else [mod]:
            for key, value in list(vars(target).items()):
                if value is func:
                    setattr(target, key, traced)
        installed.add(name)
    return sorted({name for _, _, name, _ in HOOKS} - installed)
