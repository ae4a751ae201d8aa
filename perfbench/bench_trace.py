"""Span tracing of the sixfold layers from outside the package.

The tracer replaces each traced function by a wrapper in every
``sixfold.*`` namespace that holds it (so ``engine.integrate_6d_qmc`` and
``lerch.tanh_sinh`` are caught as well as the defining modules), and
wraps the listed methods of ``quad.Integrand6D`` on the class.  A wrapper
records one span per call: name, start, end, parent span and a work count
(points or nodes) where the layer has one.  Spans stay in memory until the
run writes them out; self time is a span's duration minus its children's.
``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _qmc_points(args, kwargs) -> int:
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return spec.count * spec.replicates


def _nodes(pos: int, name: str):
    def count(args, kwargs) -> int:
        return int(np.size(args[pos] if len(args) > pos else kwargs[name]))

    return count


# (module, attribute, work counter) for every traced function.
FUNCTIONS = (
    ("engine", "verify", None),
    ("specialfn", "log_gamma", None),
    ("specialfn", "digamma", None),
    ("specialfn", "polygamma", None),
    ("specialfn", "hurwitz_zeta", None),
    ("specialfn", "riemann_zeta", None),
    ("jets", "closed_form_jet", None),
    ("jets", "jet_of_gamma", None),
    ("lerch", "lerch_apostol", None),
    ("lerch", "lerch_series", None),
    ("lerch", "lerch_minus_one_split", None),
    ("lerch", "lerch_unit_circle_full", None),
    ("lerch", "_abel_plana_phi", None),
    ("legendre", "kernel_factor_array", _nodes(2, "x")),
    ("legendre", "hyp2f1_array", _nodes(3, "x")),
    ("quad", "tanh_sinh", None),
    ("quad", "gauss_laguerre", None),
    ("quad", "log_axis_rule", None),
    ("quad", "sobol_points", None),
    ("quad", "integrate_6d_tensor", None),
    ("quad", "integrate_6d_qmc", _qmc_points),
)
INTEGRAND_METHODS = ("x_factor", "y_factor", "x_kernel", "y_kernel", "coupling")


class Tracer:
    """Collects spans ``(name, start, end, parent, work)``; parent is the
    index of the enclosing span, -1 for a root."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, work=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((name, 0.0, 0.0, parent, 0))
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, work(args, kwargs) if work else 0)

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever the package holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "sixfold" or n.startswith("sixfold.")]
        for mod_name, attr, work in FUNCTIONS:
            original = getattr(sys.modules[f"sixfold.{mod_name}"], attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", original, work)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        cls = sys.modules["sixfold.quad"].Integrand6D
        for meth in INTEGRAND_METHODS:
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self.wrap(f"quad.Integrand6D.{meth}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans of the
        name only, so recursion is not counted twice), self seconds and work."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl": 0.0, "self": 0.0, "work": 0}
        )
        for idx, (name, t0, t1, parent, work) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["self"] += (t1 - t0) - child[idx]
            row["work"] += work
            if not self._inside(parent, name):
                row["incl"] += t1 - t0
        return out

    def _inside(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def write(self, path, origin: float) -> None:
        """Write the spans as tab-separated rows, times relative to ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\twork\n")
            for idx, (name, t0, t1, parent, work) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{t0 - origin:.9f}\t{t1 - origin:.9f}\t{parent}\t{work}\n")
