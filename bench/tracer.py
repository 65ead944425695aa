"""Span recorder that instruments the spinboson package from outside.

``install(recorder)`` replaces the public functions of every package module
by timing wrappers, in every module namespace that bound the same object,
so ``run_ladder`` is timed whether ``cli``, ``diagnostics`` or
``multiscale`` calls it.  It also wraps the numerical primitives the
package calls through module globals: ``lu_factor``, ``lu_solve`` and
``svds`` as bound in ``spinboson.spectral``, and ``numpy.linalg.eigvals``.

Every wrapped call updates per-name totals (calls, inclusive seconds, self
seconds).  Calls of names outside ``HOT`` also leave a span (id, name,
start, end, parent id); hot names are called thousands of times per run,
so they are kept as totals only.  Spans stay in memory until ``to_dict``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import os
from time import perf_counter

MODULES = (
    "fock",
    "model",
    "spectral",
    "geometry",
    "constants",
    "multiscale",
    "diagnostics",
    "reporting",
    "cli",
)

# called more than about a thousand times per run on some workload
HOT = frozenset(
    {
        "spectral.lu_solve",
        "geometry.region_contains",
        "fock.verify_standard_estimates",
        "fock.build_annihilation",
        "fock.field_energy_diagonal",
    }
)


class Recorder:
    """Per-name call totals, counters and a flat list of spans."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self._stack: list[list] = []  # [child seconds, span id or None]
        self._ids = itertools.count()

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def wrap(self, name: str, fn, after=None):
        """Timed version of ``fn``; ``after(args, kwargs, result, exc)``
        runs on every return or raise to update counters."""
        stack, stats, spans, ids = self._stack, self.stats, self.spans, self._ids
        hot = name in HOT

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            span_id = None if hot else next(ids)
            frame = [0.0, span_id]
            stack.append(frame)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                tot = stats.setdefault(name, [0, 0.0, 0.0])
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[0]
                if span_id is not None:
                    spans.append((span_id, name, start, end, parent))
                if after is not None:
                    after(args, kwargs, result, exc)

        return timed

    def to_dict(self) -> dict:
        spans = sorted(self.spans)
        return {
            "stats": self.stats,
            "counters": self.counters,
            "spans": [list(s) for s in spans],
        }


def _counters(rec: Recorder, spectral) -> dict:
    """Counter hooks keyed by the wrapped name."""
    riesz_signature = inspect.signature(spectral.riesz_rank_one)

    def lu(args, kwargs, result, exc):
        rec.add("spectral.lu.dim3", float(len(args[0])) ** 3)

    def eig(args, kwargs, result, exc):
        rec.add("spectral.eig.dim3", float(len(args[0])) ** 3)

    def svds(args, kwargs, result, exc):
        if exc is not None:
            rec.add("spectral.svds.fallbacks", 1)

    def riesz(args, kwargs, result, exc):
        if result is None:
            return
        bound = riesz_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        start = bound.arguments["quad_points"]
        rec.add("spectral.contour.nodes", result.quad_points)
        rec.add("spectral.contour.doublings", round(math.log2(result.quad_points / start)))

    def assembled(args, kwargs, result, exc):
        if result is not None:
            rec.add("model.assembled_dim", result.dim)

    def basis(args, kwargs, result, exc):
        if result is not None:
            rec.add("fock.basis_states", result.dim)

    def written(args, kwargs, result, exc):
        if exc is None:
            rec.add("reporting.write_json.bytes", os.path.getsize(args[0]))

    return {
        "spectral.lu": lu,
        "spectral.eig": eig,
        "spectral.svds": svds,
        "spectral.riesz_rank_one": riesz,
        "model.assemble_hamiltonian": assembled,
        "fock.enumerate_basis": basis,
        "reporting.write_json": written,
    }


def install(rec: Recorder) -> None:
    """Wrap the package's public functions and primitives in place."""
    import numpy

    mods = {m: importlib.import_module(f"spinboson.{m}") for m in MODULES}
    package = importlib.import_module("spinboson")
    namespaces = [package, *mods.values()]
    hooks = _counters(rec, mods["spectral"])

    def rebind(original, wrapped) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapped)

    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            rebind(fn, rec.wrap(name, fn, hooks.get(name)))

    spectral = mods["spectral"]
    for attr, name in (("lu_factor", "spectral.lu"), ("lu_solve", "spectral.lu_solve"),
                       ("svds", "spectral.svds")):
        fn = getattr(spectral, attr)
        setattr(spectral, attr, rec.wrap(name, fn, hooks.get(name)))
    numpy.linalg.eigvals = rec.wrap("spectral.eig", numpy.linalg.eigvals, hooks["spectral.eig"])

    field_cls = mods["model"].DiscretizedField
    field_cls.embedding_indices = rec.wrap(
        "model.embedding_indices", field_cls.embedding_indices
    )
