"""Golden values keyed by the numpy kernel set that computes them.

numpy dispatches its float64 exp, log, tan, arctan2, sinh and expm1 to SIMD
kernels chosen by the CPU it runs on (and by ``NPY_DISABLE_CPU_FEATURES``,
read at import), and the kernels round differently in the last bits.  So a
golden value holds for one kernel set, named by ``kernel_set()``: numpy's
major.minor version and the ``current`` target of each of those loops.  A
table maps kernel sets to their values.  The comparison stays exact, and a
kernel set with no recorded values fails with its name, so its values are
recorded on a machine that runs it, never guessed or loosened.
"""

from __future__ import annotations

import numpy as np
import pytest

_LOOPS = ("exp", "log", "tan", "arctan2", "sinh", "expm1")


def _key(version: str, *targets: str) -> str:
    return f"numpy {version}: " + ", ".join(f"{loop} {t}" for loop, t in zip(_LOOPS, targets))


# The kernel sets recorded so far, on an x86-64 CPU with AVX-512, under
# NPY_DISABLE_CPU_FEATURES unset, "X86_V4" and "X86_V4 X86_V3".
AVX512 = _key("2.4", *["X86_V4"] * 6)
AVX2 = _key("2.4", "X86_V3", "X86_V3", *["baseline(X86_V2)"] * 4)
BASELINE = _key("2.4", *["baseline(X86_V2)"] * 6)


def kernel_set() -> str:
    """The kernel set of this process, in the form of the keys above."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy < 2.0 reports no dispatch targets
        info = {}
    else:
        info = opt_func_info(func_name=f"^({'|'.join(_LOOPS)})$", signature="float64")
    targets = [" ".join(sig["current"] for sig in info.get(loop, {}).values()) or "unknown" for loop in _LOOPS]
    return _key(".".join(np.__version__.split(".")[:2]), *targets)


def golden(by_kernel_set: dict):
    """The entry of ``by_kernel_set`` for this process's kernel set."""
    key = kernel_set()
    if key not in by_kernel_set:
        pytest.fail(f"no golden values recorded for the numpy kernel set {key!r}")
    return by_kernel_set[key]
