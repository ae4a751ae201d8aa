"""Seeded input generator for the sixfold benchmark workloads.

Standard library only: the generator draws plain records (case tag,
parameters as ``[re, im]`` pairs, requested paths, QMC plan) from
``random.Random(seed)``, and the program under test only ever sees those
records.  The one piece of the program the generator consults is the
strip check, passed in as ``valid``; a draw it rejects is redrawn, and no
other filtering happens.

Inputs are issued in rounds.  A round covers every input shape of the
workload once (every catalog case, every integer k, ...), and the kind of
k and of a rotates from round to round, so every run sees the same mix
whatever its length.  Every call gets fresh parameters: no two calls share
work the program could reuse.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from typing import Callable, Iterator

WORKLOADS = ("analytic_sweep", "direct_6d", "qmc_limit")

# Every analytic path; the engine marks the ones a case does not admit as
# "inadmissible", so each call runs exactly the case's admissible subset.
ANALYTIC_PATHS = ("jet", "moment", "closed", "special", "limit")
DIRECT_PATHS = ("tensor", "qmc", "closed")

# The catalog in its documented order; analytic_sweep runs one of each per round.
CASES = (
    "theorem",
    "degenerate",
    "hurwitz_zeta_form",
    "harmonic_limit",
    "difference_arctanh",
    "log3",
    "arccoth_sqrt2",
    "alt_lerch",
    "eta_zeta_line",
    "log2_limit",
    "apery",
)
# Cases whose k is not pinned by the catalog: k rotates integer/real/complex.
# The general case keeps integer k so that it always has a second analytic
# path (jet, moment) to compare its closed form against.
_FREE_K = ("hurwitz_zeta_form", "alt_lerch", "eta_zeta_line")
# Cases whose a is not pinned: a rotates positive/negative/complex.
_FREE_A = ("theorem", "degenerate", "hurwitz_zeta_form")

QMC_LIMIT_CASES = ("harmonic_limit", "log2_limit", "apery", "theorem")
QMC_LIMIT_COUNT = 1 << 18  # two of the estimator's 2^17-point blocks
MAX_K = 6

Valid = Callable[[str, dict, "list[float] | None"], bool]


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _draw_strip(rng: random.Random) -> dict[str, complex]:
    return {
        "m": rng.uniform(0.05, 0.95),
        "u": rng.uniform(-2.0, 0.95),
        "v": rng.uniform(0.05, 2.5),
        "mu": rng.uniform(-2.0, 0.95),
        "nu": rng.uniform(0.05, 2.5),
    }


def _draw_k(rng: random.Random, kind: int) -> complex:
    if kind == 0:
        return float(rng.randint(0, MAX_K))
    if kind == 1:
        return rng.uniform(0.0, MAX_K)
    return complex(rng.uniform(0.0, MAX_K), rng.uniform(-1.0, 1.0))


def _draw_a(rng: random.Random, kind: int) -> complex:
    r = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
    if kind == 0:
        return r
    if kind == 1:
        return -r
    return cmath.rect(r, rng.uniform(-math.pi, math.pi))


def _draw_a_alt(rng: random.Random, kind: int) -> complex:
    """Lerch third argument of the shifted form: Re(a) in (0, 1]."""
    re = rng.uniform(0.05, 1.0)
    return complex(re, rng.uniform(-1.0, 1.0)) if kind == 2 else re


def _record(case, params, paths=None, second=None, qmc=None) -> dict:
    return {
        "case": case,
        "params": {name: _pair(val) for name, val in params.items()},
        "paths": None if paths is None else list(paths),
        "second": None if second is None else _pair(second),
        "qmc": qmc,
    }


def _draw_valid(rng: random.Random, valid: Valid, make) -> dict:
    """Redraw ``make(rng)`` until the strip check accepts it."""
    for _ in range(10_000):
        rec = make(rng)
        if valid(rec["case"], rec["params"], rec["second"]):
            return rec
    raise RuntimeError("no valid draw in 10000 attempts; the ranges are wrong")


def _analytic(rng: random.Random, case: str, rnd: int, slot: int) -> dict:
    kind = (rnd + slot) % 3
    params = _draw_strip(rng)
    if case in _FREE_K:
        params["k"] = _draw_k(rng, kind)
    elif case == "theorem":
        params["k"] = _draw_k(rng, 0)
    if case in _FREE_A:
        params["a"] = _draw_a(rng, kind)
    elif case == "alt_lerch":
        params["a"] = _draw_a_alt(rng, kind)
    second = rng.uniform(0.05, 0.95) if case == "difference_arctanh" else None
    return _record(case, params, ANALYTIC_PATHS, second)


def _direct(rng: random.Random, k: int) -> dict:
    params = _draw_strip(rng)
    params["k"] = float(k)
    params["a"] = _draw_a(rng, 0)
    # qmc None: the engine's default plan, 2^16 points (one block).
    return _record("theorem", params, DIRECT_PATHS)


def _qmc_limit(rng: random.Random, case: str, rnd: int) -> dict:
    params = _draw_strip(rng)
    paths = None
    if case == "theorem":
        params["k"] = _draw_k(rng, 1)
        params["a"] = _draw_a(rng, 1 + rnd % 2)  # off the positive real axis
        paths = ("qmc", "closed")
    qmc = [QMC_LIMIT_COUNT, rng.getrandbits(32)]
    return _record(case, params, paths, qmc=qmc)


def round_shapes(workload: str) -> int:
    """Number of inputs in one round of ``workload``."""
    if workload == "analytic_sweep":
        return len(CASES)
    if workload == "direct_6d":
        return MAX_K + 1
    if workload == "qmc_limit":
        return len(QMC_LIMIT_CASES)
    raise ValueError(f"unknown workload {workload!r}; use one of {WORKLOADS}")


def iter_inputs(workload: str, seed: int, valid: Valid) -> Iterator[dict]:
    """Endless, deterministic stream of input records for ``workload``."""
    round_shapes(workload)  # rejects unknown names before any draw
    rng = random.Random(f"sixfold-{workload}-{seed}")
    for rnd in itertools.count():
        if workload == "analytic_sweep":
            for slot, case in enumerate(CASES):
                yield _draw_valid(rng, valid, lambda r: _analytic(r, case, rnd, slot))
        elif workload == "direct_6d":
            for k in range(MAX_K + 1):
                yield _draw_valid(rng, valid, lambda r: _direct(r, k))
        else:
            for case in QMC_LIMIT_CASES:
                yield _draw_valid(rng, valid, lambda r: _qmc_limit(r, case, rnd))


def take(workload: str, seed: int, valid: Valid, count: int) -> list[dict]:
    return list(itertools.islice(iter_inputs(workload, seed, valid), count))
