import cmath
import math
import random

import pytest

from oracles import stirling_gamma, zeta_partial
from sixfold.acceptance import taylor_coefficients
from sixfold.core import DomainError, PoleError
from sixfold.lerch import lerch_minus_one_split
from sixfold.specialfn import (
    EULER_GAMMA,
    digamma,
    gamma,
    harmonic,
    hurwitz_zeta,
    log_gamma,
    polygamma,
    rgamma,
    riemann_zeta,
)

# Fixed by the 50-term Stirling/recurrence oracle (tests/oracles.py).
GAMMA_03_04I = 0.9115615278045839 - 1.3671933575854123j


def test_gamma_classical_values():
    assert abs(gamma(1.0) - 1.0) < 1e-15
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-15


def test_gamma_complex_point_vs_stirling_oracle():
    got = gamma(0.3 + 0.4j)
    assert abs(got - GAMMA_03_04I) / abs(GAMMA_03_04I) < 1e-13
    # the oracle itself is reproducible from this checkout
    assert abs(stirling_gamma(0.3 + 0.4j) - GAMMA_03_04I) < 1e-14


def test_log_gamma_exponentiates_to_gamma():
    rng = random.Random(8)
    for _ in range(50):
        z = complex(rng.uniform(-8, 12), rng.uniform(-8, 8))
        if abs(z.imag) < 0.2 and z.real < 0.5:
            continue
        assert abs(cmath.exp(log_gamma(z)) - gamma(z)) <= 1e-11 * abs(gamma(z))


def test_gamma_pole_errors():
    with pytest.raises(PoleError):
        gamma(0.0)
    with pytest.raises(PoleError):
        log_gamma(-3.0)
    assert rgamma(-5.0) == 0.0


def test_reflection_identity():
    rng = random.Random(12)
    checked = 0
    while checked < 200:
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if min(abs(z.real - round(z.real)), abs(z.imag)) < 0.1 and abs(z.imag) < 0.1:
            continue
        val = gamma(z) * gamma(1.0 - z) * cmath.sin(math.pi * z) / math.pi
        assert abs(val - 1.0) < 1e-11
        checked += 1


def test_recurrence_identity():
    rng = random.Random(13)
    checked = 0
    while checked < 200:
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z.imag) < 0.1 and abs(z.real - round(z.real)) < 0.1:
            continue
        lhs = gamma(z + 1.0)
        rhs = z * gamma(z)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
        checked += 1


def test_digamma_classical_values():
    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-14
    # duplication-formula oracle: psi(1/2) = -gamma - 2 ln 2
    assert abs(digamma(0.5) - (-EULER_GAMMA - 2.0 * math.log(2.0))) < 1e-13


def test_polygamma_basel_point_bracketed_by_series_oracle():
    partial, tail_hi = zeta_partial(2.0, 200000)
    val = polygamma(1, 1.0).real
    assert partial < val < partial + tail_hi
    assert abs(val - math.pi**2 / 6.0) < 1e-12


def test_polygamma_matches_cauchy_coefficients_of_digamma():
    for z0 in (1.3, 2.7 + 0.4j):
        d2 = 2.0 * taylor_coefficients(digamma, z0, 0.25)[2]
        assert abs(d2 - polygamma(2, z0)) < 1e-13 * (1 + abs(d2))


def test_polygamma_order_cap():
    with pytest.raises(DomainError):
        polygamma(13, 1.0)


def test_harmonic_values():
    assert harmonic(0.0) == pytest.approx(0.0, abs=1e-14)
    assert abs(harmonic(3.0) - 11.0 / 6.0) < 1e-13
    assert abs(harmonic(-0.5) - (-2.0 * math.log(2.0))) < 1e-13


def test_harmonic_integer_partial_sums():
    total = 0.0
    for n in range(1, 21):
        total += 1.0 / n
        assert abs(harmonic(float(n)) - total) <= 1e-13 * total


def test_hurwitz_zeta_basel_bracket():
    partial, tail_hi = zeta_partial(2.0, 100000)
    val = hurwitz_zeta(2.0, 1.0).real
    assert partial < val < partial + tail_hi


def test_hurwitz_zeta_at_zero():
    for v in (0.3, 1.0, 2.5):
        assert abs(hurwitz_zeta(0.0, v) - (0.5 - v)) < 1e-13 * (1 + abs(0.5 - v))


def test_hurwitz_zeta_apery_bracket():
    partial, tail_hi = zeta_partial(3.0, 30000)
    val = hurwitz_zeta(3.0, 1.0).real
    assert partial < val < partial + tail_hi
    assert abs(val - 1.2020569031595943) < 1e-12


def test_hurwitz_recurrence_random():
    rng = random.Random(17)
    for _ in range(120):
        s = complex(rng.uniform(-4, 8), rng.uniform(-3, 3))
        if abs(s - 1.0) < 0.05:
            continue
        v = complex(rng.uniform(0.2, 4.0), rng.uniform(-1.5, 1.5))
        lhs = hurwitz_zeta(s, v) - hurwitz_zeta(s, v + 1.0)
        rhs = cmath.exp(-s * cmath.log(v))
        assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1.0)


def test_hurwitz_domain_and_pole_errors():
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, -0.5)
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0, 1.0)


def test_eta_values():
    # Dirichlet eta(s) = Phi(-1, s, 1), which the package forms from the
    # Hurwitz zeta function, and from digamma at s = 1.
    assert abs(lerch_minus_one_split(2.0, 1.0) - math.pi**2 / 12.0) < 1e-13
    assert abs(lerch_minus_one_split(1.0, 1.0) - math.log(2.0)) < 1e-14
    assert abs(riemann_zeta(2.0) - math.pi**2 / 6.0) < 1e-13


def _oracle_points(count=400):
    """Points with Re z in [-8, 8] and Im z in [-4, 4], at least 0.05 from
    the poles 0, -1, ..., -8."""
    rng = random.Random(2024)
    out = []
    while len(out) < count:
        z = complex(rng.uniform(-8.0, 8.0), rng.uniform(-4.0, 4.0))
        if min(abs(z + j) for j in range(9)) >= 0.05:
            out.append(z)
    return out


ORACLE_POINTS = _oracle_points()
# Worst relative error of polygamma(n, .) over ORACLE_POINTS against 30-digit
# mpmath, n = 0..10, measured on x86-64 once n >= 1 reflects at Re z < -5
# and n = 0 reflects at the reduced argument: 1.48e-15, 1.51e-15, 5.76e-15,
# 6.40e-15, 1.85e-14, 3.87e-14, 1.85e-14, 4.13e-14, 1.00e-13, 3.48e-14 and
# 3.16e-14.  Each bound is under twice its measured value.
POLYGAMMA_BOUNDS = (2.9e-15, 3.0e-15, 1.1e-14, 1.2e-14, 3.6e-14, 7.7e-14, 3.6e-14, 8.2e-14, 2.0e-13, 6.9e-14, 6.3e-14)


def test_log_gamma_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(30):
        for z in ORACLE_POINTS:
            ref = complex(mpmath.loggamma(z))
            worst = max(worst, abs(log_gamma(z) - ref) / max(1.0, abs(ref)))
    assert worst < 1.9e-15  # measured 9.6e-16


@pytest.mark.parametrize("n", range(11))
def test_polygamma_against_mpmath(n):
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(30):
        for z in ORACLE_POINTS:
            ref = complex(mpmath.polygamma(n, z))
            worst = max(worst, abs(polygamma(n, z) - ref) / abs(ref))
    assert worst < POLYGAMMA_BOUNDS[n]


@pytest.mark.parametrize("z, bound", [(-2e6 + 0.5j, 5.9e-17), (-3e5 + 0.5j, 1.2e-16)])
def test_digamma_far_left_reflects_against_mpmath(z, bound):
    # The reflection keeps the upward recurrence from walking 10^5..10^6
    # steps, and forms cot at z less its nearest integer, so the rounding
    # of pi z does not grow with |z|.  Measured: 3.0e-17 and 0; the second
    # bound allows one rounding of the reference.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = complex(mpmath.digamma(z))
    assert abs(digamma(z) - ref) <= bound * abs(ref)


def _far_left_points():
    """(n, z): n in 1..12, Re z log-uniform in [-1000, -5], Im z in [-4, 4]."""
    rng = random.Random(22)
    out = []
    for _ in range(60):
        n = rng.randint(1, 12)
        out.append((n, complex(-(10 ** rng.uniform(math.log10(5.0), 3.0)), rng.uniform(-4.0, 4.0))))
    return out


def test_polygamma_far_left_reflects_against_mpmath():
    # n >= 1 reflects at Re z < -5, where the upward recurrence would take
    # one step per unit of Re z.  Worst measured relative error: 4.0e-15
    # over these 60 points, 5.3e-16 at the farthest six.
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(30):
        for n, z in _far_left_points():
            ref = complex(mpmath.polygamma(n, z))
            worst = max(worst, abs(polygamma(n, z) - ref) / abs(ref))
    assert worst < 8e-15, worst
    # mpmath's own polygamma walks a recurrence this far out (35 s at -2e6),
    # so these points take the reflection in 30-digit mpmath, with mpmath's
    # derivative of cot.
    far = ((1, -2e6 + 0.5j), (1, -3e5 + 0.5j), (7, -1e6 - 2.5j), (12, -5e4 + 0.2j))
    far += ((4, -123456.7 + 3.9j), (2, -9e5 - 0.01j))
    for n, z in far:
        with mpmath.workdps(30):
            w = mpmath.mpc(z)
            cot_n = mpmath.diff(mpmath.cot, mpmath.pi * w, n)
            ref = complex((-1) ** n * mpmath.polygamma(n, 1 - w) - mpmath.pi ** (n + 1) * cot_n)
        assert abs(polygamma(n, z) - ref) <= 2e-15 * abs(ref), (n, z)
