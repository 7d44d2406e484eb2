"""In-memory spans for the benchmark, and the traced pass's rebinding of the
names ``tbma.chain`` and ``tbma.search`` call.

Spans are recorded at two kinds of boundary: around the benchmark's own
calls into the library (``Tracer.span``), and, in the traced pass only,
around the functions the sweep loop looks up by module-global name
(``instrumented``).  The package itself is never edited.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np


def _model_dim(args, kwargs, result):
    model = args[2] if len(args) > 2 else kwargs["model"]
    return model.d


def _accepted(args, kwargs, result):
    return bool(result[1])


# (module, attribute, span name, observer of (args, kwargs, result) or None).
# The observers read the scored model's dimension and the move outcome.
TRACED_NAMES = (
    ("tbma.chain", "sample_latent", "conditionals.sample_latent", None),
    ("tbma.chain", "gamma_posterior_params", "conditionals.gamma_posterior_params", None),
    ("tbma.chain", "draw_gamma", "conditionals.draw_gamma", None),
    ("tbma.chain", "phi_posterior_params", "conditionals.phi_posterior_params", None),
    ("tbma.chain", "draw_phi", "conditionals.draw_phi", None),
    ("tbma.chain", "mc3_step", "search.mc3_step", _accepted),
    ("tbma.chain", "draw_psi", "conditionals.draw_psi", None),
    ("tbma.search", "conditional_log_marginal", "search.conditional_log_marginal", _model_dim),
)


class Tracer:
    """Spans as parallel lists: name, start and end (ns), enclosing span index."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.observed: dict[str, list] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0)
        self._open.append(index)
        self.starts.append(perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn, observe=None):
        observed = self.observed.setdefault(name, [])

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if observe is not None:
                observed.append(observe(args, kwargs, result))
            return result

        return timed

    # ---- reading spans back -------------------------------------------------

    def durations_ms(self) -> np.ndarray:
        return (np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)) / 1e6

    def self_ms(self) -> np.ndarray:
        """Each span's duration minus the time covered by its direct children."""
        dur = self.durations_ms()
        child = np.zeros_like(dur)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def select(self, name: str) -> np.ndarray:
        return np.flatnonzero(np.asarray(self.names, dtype=object) == name)

    def total_s(self, name: str) -> float:
        return float(self.durations_ms()[self.select(name)].sum()) / 1e3

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "start_ns": self.starts,
            "end_ns": self.ends,
            "parent": self.parents,
        }


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind the traced names to timing wrappers for the duration of the block.

    Yields the list of names that no longer exist; those layers are reported
    as absent instead of failing the run.
    """
    saved, absent = [], []
    for module_name, attr, span_name, observe in TRACED_NAMES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            absent.append(f"{module_name}.{attr}")
            continue
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(span_name, original, observe))
    try:
        yield absent
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
