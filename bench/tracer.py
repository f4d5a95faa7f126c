"""Span tracing of the library's public functions from outside the library.

``Tracer.install`` replaces each target function with a recording wrapper
in every ``hermtensor`` module that binds it (so ``cli``'s imported
``expand`` and ``quadrature``'s own call to ``l2_admissible`` are both
seen) and ``uninstall`` puts the originals back.  A span is (name, start,
end, parent span, op); spans stay in memory until ``write``.  Self time is
a span's duration minus the time covered by its direct children.

Integrands are called once per node by the CLI, so they are only counted
and timed, not recorded as spans; their time still counts as covered
child time of the span that called them.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from math import comb

import numpy as np


def _points(components) -> int:
    first = components[0] if len(components) else 0.0
    if isinstance(first, np.ndarray):
        return len(first)
    return 1 if isinstance(first, (float, int, np.floating)) else 0


def _count_sym_product(counts, args, kwargs):
    a, b = args[:2]
    counts["batched"] += int(getattr(a.data, "ndim", 1) > 1 or getattr(b.data, "ndim", 1) > 1)


def _count_evaluate_basis(counts, args, kwargs):
    max_rank, components = args[0], list(args[1])
    dim = kwargs.get("dim", args[2] if len(args) > 2 else 3)
    points = _points(components)
    counts["points"] += points
    counts["values"] += points * sum(comb(n + dim - 1, dim - 1) for n in range(max_rank + 1))


def _count_integrand(counts, args, kwargs):
    counts["points"] += len(np.atleast_2d(args[-1]))


# (module, function, counter) for every traced module-level function
FUNCTIONS = [
    ("symtensor", "sym_product", _count_sym_product),
    ("symtensor", "inner", None),
    ("symtensor", "perm_delta", None),
    ("hermite", "evaluate_basis", _count_evaluate_basis),
    ("hermite", "hermite_phys", None),
    ("hermite", "hermite_symbolic", None),
    ("hermite", "grad_check", None),
    ("quadrature", "expand", None),
    ("quadrature", "l2_admissible", None),
    ("quadrature", "reconstruct", None),
    ("quadrature", "truncation_error", None),
    ("quadrature", "ortho_matrix", None),
    ("quadrature", "grid_points", None),
    ("transforms", "translated_hermite", None),
    ("transforms", "translation_roundtrip", None),
    ("transforms", "convergence_probe", None),
    ("transforms", "orthogonality_after_translation", None),
    ("transforms", "translate_basis", None),
    ("mixed6", "stack_coefficients", None),
    ("mixed6", "rotate_rank_n", None),
    ("mixed6", "mixed_hermite", None),
    ("mixed6", "mixed_reconstruct", None),
    ("mixed6", "distribution_invariance", None),
    ("mixed6", "equivariance_residual", None),
    ("cli", "main", None),
    ("cli", "emit_json", None),
]

# traced SymTensor methods
METHODS = ("to_dense", "from_dense")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.op = -1
        self.integrand_s = 0.0
        self._covered: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, counter=None):
        names, starts, ends, parents, ops, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self._stack,
        )
        counts = self.counts[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            if counter is not None:
                counter(counts, args, kwargs)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def integrand(self, fn):
        """Count points and time of an integrand callable without recording spans."""
        counts, stack, covered = self.counts["quadrature.integrand"], self._stack, self._covered
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.integrand_s += elapsed
                if stack:
                    covered[stack[-1]] += elapsed
                _count_integrand(counts, args, kwargs)

        return counted

    def add(self, name: str, key: str, amount: int) -> None:
        self.counts[name][key] += amount

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "hermtensor" or k.startswith("hermtensor.")]
        for module, attr, counter in FUNCTIONS:
            if f"hermtensor.{module}" not in sys.modules:
                continue  # never imported, so never called
            original = getattr(sys.modules[f"hermtensor.{module}"], attr)
            wrapped = self.wrap(f"{module}.{attr}", original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapped)
        cls = sys.modules["hermtensor.symtensor"].SymTensor
        for attr in METHODS:
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(f"symtensor.{attr}", original.__func__))
            else:
                wrapped = self.wrap(f"symtensor.{attr}", original)
            self._undo.append((cls, attr, original))
            setattr(cls, attr, wrapped)
        weight_spec = sys.modules["hermtensor.quadrature"].WeightSpec
        self._undo.append((weight_spec, "weight_z", weight_spec.weight_z))
        weight_spec.weight_z = self.integrand(weight_spec.weight_z)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        name_ids = np.array([index[n] for n in self.names], dtype=np.int64)
        duration = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=duration[has_parent], minlength=len(duration))
        for sid, elapsed in self._covered.items():
            child[sid] += elapsed
        self_time = duration - child
        calls = np.bincount(name_ids, minlength=len(names))
        total = np.bincount(name_ids, weights=duration, minlength=len(names))
        own = np.bincount(name_ids, weights=self_time, minlength=len(names))
        return {
            n: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for n, i in index.items()
        }

    def write(self, path) -> None:
        """One JSON array per span, gzip-compressed: [id, name, start, end, parent, op]."""
        with gzip.open(path, "wt") as fh:
            for sid, (name, start, end, parent, op) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.ops)
            ):
                fh.write(json.dumps([sid, name, start, end, parent, op]) + "\n")
