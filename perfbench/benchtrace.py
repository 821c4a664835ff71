"""In-process span recorder for the traced benchmark run.

The benchmark wraps public functions at pla's module boundaries (and a few
numpy entry points) from the outside, so the package itself carries no
tracing code.  Each call becomes a span ``[name, start, end, parent]``;
spans stay in memory and are summarised or written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute, span name).  A dotted attribute names a method that is
# patched on its class.  Targets that a later version of the package no longer
# has are skipped, so the traced run keeps working across refactors.
PLA_TARGETS = (
    ("pla.cli", "main", "cli.main"),
    ("pla.ingest", "load_csv", "ingest.load_csv"),
    ("pla.ingest", "DataMatrix.__post_init__", "ingest.validate"),
    ("pla.dispersion", "sample_covariance", "dispersion.sample_covariance"),
    ("pla.dispersion", "sample_correlation", "dispersion.sample_correlation"),
    ("pla.dispersion", "correlation_from_covariance", "dispersion.correlation"),
    ("pla.dispersion", "DispersionMatrix.__post_init__", "dispersion.validate"),
    ("pla.dispersion", "eigendecompose", "dispersion.eigendecompose"),
    ("pla.core", "run_pla", "core.run_pla"),
    ("pla.core", "rescale_eigenvectors", "core.rescale_eigenvectors"),
    ("pla.core", "detect_blocks", "core.detect_blocks"),
    ("pla.core", "explained_variance_exact", "core.score"),
    ("pla.core", "explained_variance_approx", "core.score"),
    ("pla.core", "_assign_cov_eigen_indices", "core.score"),
    ("pla.simulate", "type_one_error", "simulate.type_one_error"),
    ("pla.simulate", "_run_iteration", "simulate.iteration"),
    ("pla.simulate", "generate_population", "simulate.generate_population"),
    ("pla.simulate", "draw_sample", "simulate.draw_sample"),
)
NUMPY_TARGETS = (
    (np, "cov", "np.cov"),
    (np.linalg, "eigh", "np.eigh"),
    (np.linalg, "eigvalsh", "np.eigvalsh"),
    (np.linalg, "cholesky", "np.cholesky"),
)


class Tracer:
    """Collects spans from wrapped callables; one tracer per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, self.clock(), None, parent])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = self.clock()

        return traced


class Patches:
    """Context manager installing tracer wrappers; undone on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        for module_name, attr, name in PLA_TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is not None and method in vars(cls):
                    self._set(cls, method, self.tracer.wrap(name, vars(cls)[method]))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped = self.tracer.wrap(name, original)
            # Rebind every pla module that imported the function by name.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "pla" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        for owner, attr, name in NUMPY_TARGETS:
            self._set(owner, attr, self.tracer.wrap(name, getattr(owner, attr)))
        return self.tracer

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result.append((end - start) - covered)
    return result


def layer_of(spans, index: int) -> str:
    """A numpy span belongs to the layer of the pla span that called it."""
    while index >= 0:
        name = spans[index][0]
        if not name.startswith("np."):
            return name.split(".")[0]
        index = spans[index][3]
    return "unattributed"


def outermost_totals(spans) -> dict[str, float]:
    """Total time per span name, counting a span nested in one of the same
    name only once, so recursion or re-entry does not double count."""
    totals: dict[str, float] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def counts(spans) -> Counter:
    return Counter(span[0] for span in spans)
