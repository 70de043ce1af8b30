"""Spans and counters around gpdist's public functions, installed from
outside the package.

gpdist's modules bind each other's functions with ``from .x import y``, so a
function is rebound in every ``gpdist`` module namespace that holds it, not
only in the module that defines it.  A traced name the package no longer
has is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "gpdist"

# Public functions timed by the traced run, as ``<module>.<function>``.
TRACED = (
    "hilbert.time_ordered_propagator",
    "hilbert.matexp",
    "hilbert.partial_inner",
    "channels.conditional_trajectories",
    "channels.integrate_lindblad",
    "channels.lindblad_rhs",
    "phase.z_functional",
    "distribution.build_distribution",
    "distribution.moments",
    "distribution.redecompose",
    "distribution.block_first_moment",
    "weakcoupling.build_AB",
    "weakcoupling.delta_z",
    "models.pd_moments",
    "models.pd_trajectories",
    "cli.load_scenario",
    "cli.main",
)
SCHEDULE_EVALS = "hilbert.Schedule.evals"
BUILD_AB = "weakcoupling.build_AB"
BUILD_AB_PEAK = "weakcoupling.build_AB.peak_mb"


def lookup(name: str):
    """The function ``<module>.<attr>`` of the package, or None if absent."""
    module, attr = name.rsplit(".", 1)
    try:
        mod = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    fn = getattr(mod, attr, None)
    return fn if callable(fn) else None


def _package_modules():
    """Every loaded package module, after importing each traced one: a
    module imported only after the rebinding would copy the wrapper with
    ``from .x import y`` and keep it once the wrapper is removed."""
    for module in {name.split(".", 1)[0] for name in TRACED}:
        try:
            importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            pass
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def _rebind(fn, wrapper, undo: list):
    """Replace ``fn`` by ``wrapper`` wherever a package module binds it."""
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, wrapper)
                undo.append((mod, key, fn))


def _restore(undo: list):
    for obj, key, value in reversed(undo):
        setattr(obj, key, value)
    undo.clear()


class Tracer:
    """In-memory spans ``[name, parent index, start, end]`` of one pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.schedule_evals = 0
        self.absent: list[str] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced function and count ``Schedule.__call__``."""
        undo: list = []
        self.absent = []
        try:
            for name in TRACED:
                fn = lookup(name)
                if fn is None:
                    self.absent.append(name)
                else:
                    _rebind(fn, self._wrap(name, fn), undo)
            schedule = lookup("hilbert.Schedule")
            call = vars(schedule).get("__call__") if schedule else None
            if call is None:
                self.absent.append(SCHEDULE_EVALS)
            else:
                @functools.wraps(call)
                def counted(*args, **kwargs):
                    self.schedule_evals += 1
                    return call(*args, **kwargs)
                undo.append((schedule, "__call__", call))
                schedule.__call__ = counted
            yield self
        finally:
            _restore(undo)

    def take_pass(self) -> dict[str, float]:
        """Per-name self time, total (inclusive) time and call counts of the
        spans recorded since the last call; the spans are then dropped.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it on the one thread that runs a pass.
        """
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for (name, _, t0, t1), c in zip(self.spans, child):
            out[f"{name}.self_s"] += t1 - t0 - c
            out[f"{name}.total_s"] += t1 - t0
            out[f"{name}.calls"] += 1
        out[SCHEDULE_EVALS] = float(self.schedule_evals)
        self.spans.clear()
        self.schedule_evals = 0
        return dict(out)


@contextmanager
def build_ab_peak():
    """While tracemalloc runs, record the peak each ``build_AB`` call adds
    above the memory held when it starts.

    Yields a dict whose ``span_mb`` is the largest such peak and whose
    ``pass_peak`` keeps the pass-wide peak that the per-call
    ``reset_peak`` would otherwise lose.  Without ``build_AB`` in the
    package, ``span_mb`` stays 0.
    """
    state = {"span_mb": 0.0, "pass_peak": 0}
    fn = lookup(BUILD_AB)
    undo: list = []
    if fn is not None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start, peak = tracemalloc.get_traced_memory()
            state["pass_peak"] = max(state["pass_peak"], peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                state["pass_peak"] = max(state["pass_peak"], peak)
                state["span_mb"] = max(state["span_mb"], (peak - start) / 1e6)
        _rebind(fn, wrapper, undo)
    try:
        yield state
    finally:
        _restore(undo)


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = [f"{n}.{q}" for n in TRACED for q in ("self_s", "calls")]
    return names + [SCHEDULE_EVALS, BUILD_AB_PEAK]
