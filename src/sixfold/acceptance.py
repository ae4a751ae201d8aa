"""Acceptance criteria, runnable as a suite (CLI selftest) or via pytest.

Each criterion is a check that returns ``(passed, detail)``; ``_criterion``
names it, times it and builds its CriterionResult.  Tolerances are pinned
here, not configurable.  Comparisons against values that can be exactly
zero use the scale-aware form |x - y| <= tol * (1 + max(|x|, |y|)).

``ALL_CRITERIA`` pairs each criterion with its wall-time budget and its
``selftest --only`` keywords.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import random
import time
from dataclasses import dataclass

import numpy as np

from . import engine, lerch, legendre, mellin
from .core import ParameterSet, validate_parameters
from .jets import closed_form_jet
from .quad import Integrand6D, QmcSpec, integrate_6d_qmc
from .specialfn import gamma, riemann_zeta

_A2_COMBOS = ((0.0, 1.0, 0.0, 1.0), (-0.3, 1.2, -0.1, 0.9), (0.5, 0.75, -0.2, 1.0))
_A2_GRID_A = (0.5, 1.0, 1.5, math.e)
_A2_GRID_M = (0.3, 0.5, 0.7)
_CAUCHY_POINTS = 32  # samples on the circle in taylor_coefficients
_DRAWS = 1000  # attempt limit of each seeded draw loop that skips draws


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _criterion(name: str):
    """Make a check returning ``(passed, detail)`` into a criterion.

    The criterion keeps the check's ``__name__``, runs and times it, and
    returns its result as a CriterionResult called ``name``.
    """

    def make(check):
        @functools.wraps(check)
        def criterion() -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = check()
            return CriterionResult(name, passed, detail, time.perf_counter() - t0)

        return criterion

    return make


def _random_strips(rng: random.Random, count: int) -> list[ParameterSet]:
    """The first ``count`` valid strips among at most ``_DRAWS`` draws."""
    draws = (
        ParameterSet(
            m=rng.uniform(0.05, 0.95),
            u=rng.uniform(-2.0, 0.95),
            v=rng.uniform(0.05, 2.5),
            mu=rng.uniform(-2.0, 0.95),
            nu=rng.uniform(0.05, 2.5),
        )
        for _ in range(_DRAWS)
    )
    return list(itertools.islice((ps for ps in draws if not validate_parameters(ps)), count))


@_criterion("A1 degenerate product identity (50 random strips, rel 1e-10)")
def criterion_a1_degenerate_product():
    strips = _random_strips(random.Random(101), 50)
    if len(strips) < 50:
        return False, f"only {len(strips)} of 50 strips valid in {_DRAWS} draws"
    worst = 0.0
    for ps in strips:
        lhs, rhs = engine.lhs_moment_expansion(ps), engine.rhs_example("degenerate", ps)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst <= 1e-10, f"worst rel {worst:.3e}"


def _a2_grid():
    for k in range(0, 7):
        for a in _A2_GRID_A:
            for m in _A2_GRID_M:
                for (u, v, mu, nu) in _A2_COMBOS:
                    yield ParameterSet(k=k, a=a, m=m, u=u, v=v, mu=mu, nu=nu)


@_criterion("A2 jet vs Lerch closed form, k=0..6 grid (rel 1e-9)")
def criterion_a2_theorem_integer_k():
    worst = 0.0
    for ps in _a2_grid():
        l = engine.lhs_jet(ps)
        r = engine.rhs_theorem(ps)
        worst = max(worst, abs(l - r) / (1.0 + abs(r)))
    return worst <= 1e-9, f"worst scaled diff {worst:.3e}"


@_criterion("A3 moment-product jet vs collapsed jet (rel 1e-9)")
def criterion_a3_path_independence():
    worst = 0.0
    for ps in _a2_grid():
        l = engine.lhs_jet(ps)
        m_val = engine.lhs_moment_expansion(ps)
        worst = max(worst, abs(l - m_val) / (1.0 + abs(l)))
    return worst <= 1e-9, f"worst scaled diff {worst:.3e}"


@_criterion("A4 direct 6-D tensor (rel 1e-4) and QMC (3 stderr), k=0,1,2")
def criterion_a4_direct_6d():
    details = []
    ok = True
    base = ParameterSet(a=1.0, m=0.5, u=0.0, v=1.0, mu=0.0, nu=1.0)
    for k in (0, 1, 2):
        ps = base.replace(k=k)
        rep = engine.verify(
            "theorem",
            ps,
            paths=("tensor", "qmc", "closed"),
            qmc_spec=QmcSpec(count=1 << 20, shift_seed=404),
        )
        closed = rep.paths["closed"].value
        tensor = rep.paths["tensor"].value
        qmc_val = rep.paths["qmc"].value
        stderr = rep.paths["qmc"].err
        t_ok = abs(tensor - closed) <= 1e-4 * (1.0 + abs(closed))
        q_ok = abs(qmc_val - closed) <= 3.0 * stderr + 1e-9
        ok = ok and t_ok and q_ok
        details.append(
            f"k={k}: tensor diff {abs(tensor - closed):.2e}, "
            f"qmc diff {abs(qmc_val - closed):.2e} vs 3se {3*stderr:.2e}"
        )
        if k == 0:
            ok = ok and abs(closed - 4.9348022) < 1e-6
    return ok, "; ".join(details)


@_criterion("A5 zeta line: Lerch path vs zeta closed form, k in {1/2,2,3,4} (rel 1e-8)")
def criterion_a5_zeta_line():
    worst = 0.0
    for k in (0.5, 2.0, 3.0, 4.0):
        ps = ParameterSet(k=k, a=1.0, m=1.0, u=0.0, v=1.0, mu=0.0, nu=1.0)
        closed = engine.rhs_theorem(engine.theorem_parameters(engine.catalog_case("eta_zeta_line"), ps))
        special = engine.rhs_example("eta_zeta_line", ps)
        worst = max(worst, abs(closed - special) / (1.0 + max(abs(closed), abs(special))))
    return worst <= 1e-8, f"worst scaled diff {worst:.3e}"


@_criterion("A6 Apery point: k=-3 value 3i zeta(3)/(32 pi) (rel 1e-9)")
def criterion_a6_apery():
    ps = ParameterSet(k=-3.0, a=1.0, m=1.0, u=0.0, v=1.0, mu=0.0, nu=1.0)
    closed = engine.rhs_theorem(engine.theorem_parameters(engine.catalog_case("apery"), ps))
    target = 3j * riemann_zeta(3.0).real / (32.0 * math.pi)
    rel = abs(closed - target) / abs(target)
    sanity = abs(target - 0.0358712j) < 1e-7
    return rel <= 1e-9 and sanity, f"rel {rel:.3e}, value {closed:.10g}"


@_criterion("A7 log(2) limit via Richardson at k -> -1 (1e-12)")
def criterion_a7_log2_limit():
    ps = ParameterSet(k=-1.0, a=1.0, m=1.0, u=0.0, v=1.0, mu=0.0, nu=1.0)
    limit, est = engine.rhs_limit_full("log2_limit", ps)
    target = -1j * math.pi * math.log(2.0) / 2.0
    diff = abs(limit - target)
    return diff <= 1e-12, f"diff {diff:.3e} (estimate {est:.1e})"


@_criterion("A8 harmonic limit: Richardson (rel 1e-9) and 2^22-point QMC (3 stderr)")
def criterion_a8_harmonic_limit():
    ps = ParameterSet(k=-1.0, a=-2.0, m=0.5, u=0.0, v=1.0, mu=0.0, nu=1.0)
    case = engine.catalog_case("harmonic_limit")
    special = engine.rhs_example(case, ps)
    limit, _ = engine.rhs_limit_full(case, ps)
    rel = abs(limit - special) / (1.0 + abs(special))
    qmc_val, stderr = integrate_6d_qmc(Integrand6D(ps), QmcSpec(count=1 << 22, shift_seed=808))
    q_diff = abs(qmc_val - special)
    passed = rel <= 1e-9 and q_diff <= 3.0 * stderr + 1e-9
    return passed, f"limit rel {rel:.3e}; qmc diff {q_diff:.2e} vs 3se {3*stderr:.2e}"


@_criterion("A9 difference identities at (1/2,1/3) and (1/2,1/4) (1e-12)")
def criterion_a9_difference_identities():
    ps = ParameterSet(k=-1.0, a=1.0, m=0.5, u=0.0, v=1.0, mu=0.0, nu=1.0)
    val3 = engine.rhs_example("difference_arctanh", ps, second=1.0 / 3.0)
    val4 = engine.rhs_example("difference_arctanh", ps, second=0.25)
    t3 = -math.pi * math.log(3.0) / 4.0
    t4 = -math.pi * math.log(1.0 + math.sqrt(2.0)) / 2.0
    d3, d4 = abs(val3 - t3), abs(val4 - t4)
    return d3 <= 1e-12 and d4 <= 1e-12, f"log3 diff {d3:.2e}, arccoth diff {d4:.2e}"


@_criterion(
    "A10 module oracles (lerch 1e-14, legendre 1e-12, mellin 1e-7, "
    "gamma 1e-11, jets 1e-12)"
)
def criterion_a10_module_oracles():
    problems = []

    # Lerch, rel 1e-14: on the circle, where the Laplace form runs, against
    # Abel-Plana or, where Abel-Plana runs, the recurrence; inside
    # the disk against the power series where it is well-conditioned
    # (|z| <= 1/2 when Re s < 0).
    rng = random.Random(55)
    worst = 0.0
    for trial in range(40):
        s = complex(rng.uniform(-3.0, 4.0), rng.uniform(-1.5, 1.5))
        v = complex(rng.uniform(0.4, 2.2), rng.uniform(-0.6, 0.6))
        if trial % 2 == 0:
            z = cmath.exp(2j * math.pi * rng.uniform(0.05, 0.95))
            if abs(z + 1.0) < 1e-9:
                continue
            got = lerch.lerch_unit_circle_full(z, s, v)[0]
            alt = (
                lerch._abel_plana_phi(z, s, v)[0]
                if lerch._laplace_route(s, v)
                else complex(v) ** (-s) + z * lerch.lerch_unit_circle_full(z, s, v + 1.0)[0]
            )
        else:
            rho = rng.uniform(0.93, 0.99) if s.real >= 0 else rng.uniform(0.05, 0.5)
            z = rho * cmath.exp(1j * rng.uniform(0.1, 6.1))
            got = lerch.lerch_phi(z, s, v)
            alt = lerch.lerch_series(z, s, v)
        worst = max(worst, abs(got - alt) / (1.0 + max(abs(got), abs(alt))))
    split = lerch.lerch_minus_one_split(2.5, 0.8)
    circ = lerch.lerch_unit_circle_full(-1.0, 2.5, 0.8)[0]
    worst = max(worst, abs(split - circ) / (1.0 + abs(split)))
    if worst > 1e-14:
        problems.append(f"lerch agreement {worst:.2e}")

    # Legendre: the paths' kernel at order -mo, turned into P_n^mo by the
    # Ferrers relation P_n^mo = (-1)^mo (n+mo)!/(n-mo)! P_n^(-mo) (DLMF
    # 14.9.3), vs the degree recurrence, rel 1e-12.
    worst_p = 0.0
    xs = np.array((0.1, 0.3, 0.5, 0.7, 0.9))
    for n in range(0, 21):
        for mo in range(0, min(n, 5) + 1):
            ferrers = (-1) ** mo * math.factorial(n + mo) / math.factorial(n - mo)
            hyp = ferrers * (1.0 - xs * xs) ** (-mo / 2) * legendre.kernel_factor_array(n, -mo, xs)
            for x, p in zip(xs, hyp):
                ref = legendre.legendre_recurrence(n, mo, x)[-1]
                worst_p = max(worst_p, abs(p - ref) / (1.0 + abs(ref)))
    if worst_p > 1e-12:
        problems.append(f"legendre agreement {worst_p:.2e}")

    # Mellin closed vs quadrature, rel 1e-7.
    rng = random.Random(77)
    worst_m = 0.0
    done_r = done_c = 0
    for _ in range(_DRAWS):
        if done_r >= 50 and done_c >= 20:
            break
        if done_r < 50:
            s = rng.uniform(0.1, 3.0)
            u = rng.uniform(-2.0, 0.9)
            v = rng.uniform(-1.5, 2.5)
        else:
            s = complex(rng.uniform(0.2, 2.5), rng.uniform(-1.0, 1.0))
            u = complex(rng.uniform(-1.5, 0.8), rng.uniform(-1.0, 1.0))
            v = complex(rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 1.0))
        q = mellin.mellin_legendre_quadrature(s, u, v)
        c = mellin.mellin_legendre_closed(s, u, v)
        if abs(c) < 1e-10:
            continue
        worst_m = max(worst_m, abs(q - c) / abs(c))
        if isinstance(s, complex) and s.imag != 0:
            done_c += 1
        else:
            done_r += 1
    if done_r < 50 or done_c < 20:
        usable = done_r + done_c
        problems.append(f"mellin: only {usable} of 70 points with |closed| >= 1e-10 in {_DRAWS} draws")
    if worst_m > 1e-7:
        problems.append(f"mellin agreement {worst_m:.2e}")

    # Gamma duplication, rel 1e-11: G(z) G(z+1/2) = 2^(1-2z) sqrt(pi) G(2z).
    # Unlike the reflection formula, which gamma itself uses for Re z < 1/2,
    # this relates Lanczos values at different points, so it sees the core.
    rng = random.Random(99)
    worst_g = 0.0
    count = 0
    while count < 200:
        z = complex(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
        if abs(z.imag) < 0.1 and abs(2.0 * z.real - round(2.0 * z.real)) < 0.2:
            continue
        rhs = cmath.exp((1.0 - 2.0 * z) * math.log(2.0)) * math.sqrt(math.pi) * gamma(2.0 * z)
        worst_g = max(worst_g, abs(gamma(z) * gamma(z + 0.5) / rhs - 1.0))
        count += 1
    if worst_g > 1e-11:
        problems.append(f"gamma duplication {worst_g:.2e}")

    # Jet coefficients 0..4 vs Cauchy's formula on the scalar product
    # a^w pi^2 2^(mu+u-1) csc(pi(m+w)), whose nearest poles are 0.4 away.
    ps = ParameterSet(k=4, a=1.5, m=0.4, u=-0.3, v=1.2, mu=-0.1, nu=0.9)
    jet = closed_form_jet(ps, 4)
    pref = math.pi**2 * 2.0 ** (ps.mu + ps.u - 1.0)
    cauchy = taylor_coefficients(
        lambda w: pref * cmath.exp(w * cmath.log(ps.a)) / cmath.sin(math.pi * (ps.m + w)), 0.0, 0.1
    )
    worst_j = max(abs(cauchy[j] - jet[j]) / (1.0 + abs(jet[j])) for j in range(5))
    if worst_j > 1e-12:
        problems.append(f"jet Cauchy coefficients {worst_j:.2e}")

    if problems:
        return False, "; ".join(problems)
    return True, (
        f"lerch {worst:.1e}, legendre {worst_p:.1e}, mellin {worst_m:.1e}, "
        f"gamma {worst_g:.1e}, jets {worst_j:.1e}"
    )


def taylor_coefficients(f, z0: complex, r: float) -> np.ndarray:
    """Taylor coefficients c_0, c_1, ... of f about z0 by Cauchy's formula.

    The trapezoid rule on the circle |z - z0| = r: f at _CAUCHY_POINTS
    equispaced points, one FFT, coefficient j scaled by r^-j.  All in double
    precision; c_j is good to about 2^-53 max|f| / r^j plus the aliased
    c_(j+32) r^32, so r should be a fraction of the distance to the nearest
    singularity and only the low coefficients are meant to be read.
    """
    n = np.arange(_CAUCHY_POINTS)
    samples = [f(complex(z)) for z in z0 + r * np.exp(2j * np.pi * n / _CAUCHY_POINTS)]
    return np.fft.fft(samples) / (_CAUCHY_POINTS * r**n)


# (criterion, wall-time budget in seconds, extra keywords for selftest --only).
# Each budget is about 10x the criterion's time on one CPU of a 2-vCPU Xeon
# VM (A4 1.9 s, A8 2.3 s, A3 and A10 0.2 s, the others 0.1 s or less), and
# at least 1 s, so a several-fold slowdown of a criterion's paths shows.
ALL_CRITERIA = (
    (criterion_a1_degenerate_product, 1.0, "product mellin csc"),
    (criterion_a2_theorem_integer_k, 1.0, "jet lerch closed grid"),
    (criterion_a3_path_independence, 2.0, "moment mellin jet"),
    (criterion_a4_direct_6d, 20.0, "tensor qmc quadrature sobol"),
    (criterion_a5_zeta_line, 1.0, "lerch zeta eta"),
    (criterion_a6_apery, 1.0, "zeta lerch"),
    (criterion_a7_log2_limit, 1.0, "limit richardson"),
    (criterion_a8_harmonic_limit, 30.0, "limit richardson qmc digamma harmonic"),
    (criterion_a9_difference_identities, 1.0, "arctanh difference"),
    (criterion_a10_module_oracles, 5.0, "lerch legendre mellin gamma jets oracles"),
)


def run_suite(only: str | None = None) -> list[CriterionResult]:
    """Run, in order, the criteria that have ``only`` as a whole word.

    The words are the function name split on ``_`` and the keywords split
    on spaces, so ``a1`` selects A1 and not A10.
    """
    return [
        fn()
        for fn, _, keywords in ALL_CRITERIA
        if not only or only.lower() in (*fn.__name__.split("_"), *keywords.split())
    ]
