import math
import random

import numpy as np
import pytest

from oracles import hyp2f1_array_complex, laplace_legendre
from sixfold.core import DomainError, ParameterSet, PoleError
from sixfold.legendre import (
    assoc_legendre_p,
    hyp2f1,
    hyp2f1_array,
    kernel_factor_array,
    kernel_series,
    legendre_recurrence,
)
from sixfold.quad import Integrand6D
from sixfold.specialfn import rgamma

# Fixed by the 64-point Gauss-Legendre Laplace-integral oracle.
P_HALF_AT_05 = 0.7952489081860239


def test_hyp2f1_at_zero():
    assert hyp2f1(0.7 + 0.2j, -1.1, 0.9, 0.0) == 1.0


def test_hyp2f1_log_series_point():
    got = hyp2f1(1.0, 1.0, 2.0, 0.25)
    expect = -math.log(0.75) / 0.25
    assert abs(got - expect) < 1e-12 * expect


def test_hyp2f1_terminating():
    got = hyp2f1(-1.0, 2.3, 1.7, 0.3)
    assert abs(got - (1.0 - 2.3 * 0.3 / 1.7)) < 1e-14


def _mpmath_hyp2f1(a, b, c, x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return complex(mpmath.hyp2f1(a, b, c, mpmath.mpf(x)))


@pytest.mark.parametrize("a, b", [(-15, 16.5), (-12, 13.0)])
def test_hyp2f1_terminating_non_integer_sums_in_extended_precision(a, b):
    # A float64 sum of these cancelling series is off by 3e-9 and 4e-10
    # relative; their parameters are real, so hyp2f1 sums them exactly.
    ref = _mpmath_hyp2f1(a, b, 1.25, 0.45)
    assert abs(hyp2f1(a, b, 1.25, 0.45) - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("a, b", [(-15, 16.5), (-12, 13.0)])
def test_hyp2f1_real_terminating_exact_where_long_double_is_double(monkeypatch, a, b):
    # Where long double is double (Windows, macOS arm64) an extended-precision
    # sum would be the float64 one; the exact sum does not depend on it.
    ref = _mpmath_hyp2f1(a, b, 1.25, 0.45)
    monkeypatch.setattr(np, "longdouble", np.float64)
    monkeypatch.setattr(np, "clongdouble", np.complex128)
    assert abs(hyp2f1(a, b, 1.25, 0.45) - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("long_double_is_double", [False, True])
def test_hyp2f1_complex_terminating_matches_mpmath(monkeypatch, long_double_is_double):
    # Integer degree with complex order: the scalar sums the series exactly
    # and rounds once, so long double plays no part.  Worst
    # |err| / max(1, |F|) on these 60 draws: 0 either way; the bound allows
    # one rounding of the reference.
    mpmath = pytest.importorskip("mpmath")
    if long_double_is_double:
        monkeypatch.setattr(np, "longdouble", np.float64)
        monkeypatch.setattr(np, "clongdouble", np.complex128)
    bound = 2.3e-16
    rng = random.Random(34)
    for _ in range(60):
        n = rng.randint(1, 20)
        c = 1.0 - complex(rng.uniform(-2.0, 0.95), rng.uniform(-1.0, 1.0))
        x = rng.uniform(0.0, 0.5)
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp2f1(-n, n + 1, c, x))
        assert abs(hyp2f1(-n, n + 1.0, c, x) - ref) <= bound * max(1.0, abs(ref)), (n, c, x)


def test_hyp2f1_c_pole():
    with pytest.raises(PoleError):
        hyp2f1(0.5, 0.7, -2.0, 0.3)


def test_hyp2f1_terminating_c_pole():
    # a = -3 terminates the series, but the ratio of its third term to its
    # second divides by c + 1 = 0.
    with pytest.raises(PoleError, match="hits a non-positive integer"):
        hyp2f1(-3, 1, -1, 0.3)


def test_hyp2f1_domain():
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.7, 1.0, 0.9)


def test_hyp2f1_array_matches_scalar():
    xs = np.array([0.0, 0.1, 0.25, 0.49])
    arr = hyp2f1_array(0.3 - 0.2j, 1.4, 0.8 + 0.1j, xs)
    for x, got in zip(xs, arr):
        assert abs(got - hyp2f1(0.3 - 0.2j, 1.4, 0.8 + 0.1j, float(x))) < 1e-14


def test_hyp2f1_array_real_series_matches_complex_reference():
    # The float64 series must reproduce the real part of the same algorithm
    # in complex arithmetic - Maclaurin stop, Taylor shift about 1/4, tail
    # cut and Horner sum - bit for bit, terminating series included.
    rng = random.Random(31)
    gen = np.random.default_rng(31)
    for trial in range(60):
        a = float(-rng.randint(0, 6)) if trial % 4 == 0 else rng.uniform(-4.0, 3.0)
        b = rng.uniform(-3.0, 4.0)
        c = rng.uniform(0.05, 3.0) if trial % 3 else rng.uniform(-2.9, -0.1)
        x = gen.uniform(0.0, 0.5, 257)
        x[:2] = (0.0, 0.5)
        got = hyp2f1_array(a, b, c, x)
        assert got.dtype == np.float64
        assert np.array_equal(got, hyp2f1_array_complex(a, b, c, x).real), (a, b, c)


def test_hyp2f1_array_near_interior_zero_matches_mpmath():
    # P_3.3(1 - 2x) = 2F1(-3.3, 4.3; 1; x) vanishes near x = 0.439, where
    # the sum cancels, so the error is bounded in absolute terms there (it
    # reads 5.4e-16 at most at these five nodes).
    lo, hi = 0.43, 0.44
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (hyp2f1(-3.3, 4.3, 1.0, lo) * hyp2f1(-3.3, 4.3, 1.0, mid)).real <= 0.0:
            hi = mid
        else:
            lo = mid
    x = np.array([0.0, 0.25, lo, hi, 0.5])
    got = hyp2f1_array(-3.3, 4.3, 1.0, x)
    ref = np.array([_mpmath_hyp2f1(-3.3, 4.3, 1.0, t).real for t in x])
    assert abs(ref[2]) < 1e-14
    assert np.max(np.abs(got - ref)) <= 2e-15


def test_hyp2f1_array_complex_parameters_stay_complex():
    x = np.linspace(0.0, 0.5, 33)
    got = hyp2f1_array(0.3 - 0.2j, 1.4, 0.8 + 0.1j, x)
    assert got.dtype == np.complex128
    assert np.array_equal(got, hyp2f1_array_complex(0.3 - 0.2j, 1.4, 0.8 + 0.1j, x))


def _hyp2f1_oracle_grid(extended: bool):
    """(a, b, c, x, bound) rows: the Legendre kernels' series with degree v up
    to 6 and c = 1 - u down to 0.05, the integer-order series at c = 1 and
    2, the terminating series of integer degree n <= 20, and complex
    parameters, at x = 0, 1e-12, 1/2 and five random interior points.  The bounds on
    |err| / max(1, |F|) hold about 3x above the worst error seen, with the
    Taylor coefficients formed in extended precision or in double."""
    real, cplx, term, grow = (3e-15, 1e-15, 1e-15, 3.0) if extended else (5e-14, 1e-14, 2e-15, 2.0)
    rng = random.Random(1919)
    rows = []

    def nodes():
        return np.array([0.0, 1e-12, 0.5] + [rng.uniform(0.0, 0.5) for _ in range(5)])

    for _ in range(60):
        v, u = rng.uniform(0.05, 6.0), rng.uniform(-2.0, 0.95)
        rows.append((-v, v + 1.0, 1.0 - u, nodes(), real))
    for c in (1.0, 2.0):
        for _ in range(15):
            v = rng.uniform(0.05, 6.0)
            rows.append((c - 1.0 - v, v + c, c, nodes(), real))
    for n in range(21):
        # a terminating series cancels more as n grows, and so does its shift
        rows.append((-float(n), n + 1.0, 1.0 - rng.uniform(-2.0, 0.95), nodes(), term * 10 ** (n / grow)))
    for _ in range(30):
        v = complex(rng.uniform(0.05, 4.0), rng.uniform(-2.0, 2.0))
        u = complex(rng.uniform(-2.0, 0.9), rng.uniform(-1.0, 1.0))
        rows.append((-v, v + 1.0, 1.0 - u, nodes(), cplx))
    return rows


@pytest.mark.parametrize("long_double_is_double", [False, True])
def test_hyp2f1_array_matches_mpmath(monkeypatch, long_double_is_double):
    # Against 30-digit mpmath.  On x86-64 the worst errors on this grid are
    # 9.4e-16 for real parameters and 2.8e-16 for complex ones, and 1.3e-9
    # for the terminating series at n = 20, whose terms cancel; where long
    # double is double (Windows, macOS arm64, or patched here) they are
    # 2.3e-14, 2.6e-15 and 7.0e-6.
    mpmath = pytest.importorskip("mpmath")
    if long_double_is_double:
        monkeypatch.setattr(np, "longdouble", np.float64)
        monkeypatch.setattr(np, "clongdouble", np.complex128)
    extended = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
    for a, b, c, x, bound in _hyp2f1_oracle_grid(extended):
        got = hyp2f1_array(a, b, c, x)
        with mpmath.workdps(30):
            ref = [complex(mpmath.hyp2f1(a, b, c, mpmath.mpf(float(t)))) for t in x]
        for t, g, r in zip(x, got, ref):
            assert abs(g - r) <= bound * max(1.0, abs(r)), (a, b, c, t)


def test_kernel_factor_array_real_dtype_at_non_integer_and_integer_orders():
    x = np.array([0.05, 0.3, 0.7, 0.95])
    for v, u in ((1.7, -0.6), (2.4, 0.0), (3.0, -2.0)):
        got = kernel_factor_array(v, u, x)
        assert got.dtype == np.float64
        for t, g in zip(x, got):
            ref = assoc_legendre_p(v, u, float(t)) * (1.0 - t * t) ** (-u / 2.0)
            assert abs(g - ref) <= 1e-13 * abs(ref), (v, u, t)
    assert kernel_factor_array(1.7 + 0.1j, -0.6, x).dtype == np.complex128


def test_kernel_factor_array_matches_mpmath():
    # The real kernel both direct paths share, against 30-digit mpmath.  The
    # bound is 1e-13 relative; near an interior zero of P_v^u the Gauss series
    # around x = 1 cancels, so there the error is measured against the
    # kernel's size away from the zero, min(1, (1-x)^-u), and bounded by 1e-15
    # of it (over 30 seeds, the worst point reached 0.37 of that bound).
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2024)
    orders = [(rng.uniform(0.05, 2.5), rng.uniform(-2.0, 0.95)) for _ in range(40)]
    orders += [(rng.uniform(0.05, 2.5), float(u)) for u in (-2, -1, 0) for _ in range(3)]
    for v, u in orders:
        ends = [10.0 ** rng.uniform(-12.0, -3.0) for _ in range(2)]
        x = np.array([rng.uniform(0.001, 0.999) for _ in range(2)] + ends + [1.0 - d for d in ends])
        for t, got in zip(x, kernel_factor_array(v, u, x)):
            with mpmath.workdps(30):
                mt = mpmath.mpf(float(t))
                ref = float(mpmath.legenp(v, u, mt, type=2).real * (1 - mt * mt) ** (-u / 2))
            bound = max(1e-13 * abs(ref), 1e-15 * min(1.0, (1.0 - t) ** -u))
            assert abs(got - ref) <= bound, (v, u, t)


def _mpmath_legenp_integer_order(mpmath, v, m, x):
    """P_v^m(x) at an integer order m >= 0 in mpmath's working precision,
    as (-1)^m Gamma(v+m+1) / Gamma(v-m+1) P_v^-m(x) (DLMF 14.9.3): legenp
    at -m sums a regular Gauss series, where at +m it resolves the pole of
    Gamma(1-m), some 100 times slower.  At 30 digits the two agree to
    3.5e-31 relative on the draws of the test below."""
    v = mpmath.mpf(v)
    return (-1) ** m * mpmath.rgamma(v - m + 1) * mpmath.gamma(v + m + 1) * mpmath.legenp(v, -m, x, type=2)


def test_assoc_legendre_p_positive_integer_orders_match_mpmath():
    # Positive integer orders at non-integer degree, which only the scalar
    # function takes: one Gauss series, with no loss of digits near x = 1,
    # against 30-digit mpmath.  Over the draws of seeds 0-199 and 2025 the
    # worst error was 1.48e-15 relative where |P| >= (1-x^2)^(mo/2), the
    # factor by which P_v^mo vanishes at x = 1, and 1.44e-15 of that factor
    # where |P| is smaller: next to the interior zeros of P_v^1 at degree
    # in (2, 2.5), where the series cancels, the relative error reached
    # 1.5e-13.  The bound is under twice those.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2025)
    for mo in range(1, 6):
        for _ in range(4):
            v = rng.uniform(0.05, 2.5)
            ends = [10.0 ** rng.uniform(-12.0, -3.0) for _ in range(2)]
            for t in [rng.uniform(0.001, 0.999) for _ in range(3)] + ends + [1.0 - d for d in ends]:
                got = assoc_legendre_p(v, float(mo), t)
                with mpmath.workdps(30):
                    ref = complex(_mpmath_legenp_integer_order(mpmath, v, mo, mpmath.mpf(t)))
                bound = 2.9e-15 * max(abs(ref), ((1.0 - t) * (1.0 + t)) ** (mo / 2))
                assert abs(got - ref) <= bound, (v, mo, t)


def test_assoc_legendre_p_on_a10_grid_matches_mpmath():
    # A10 checks assoc_legendre_p against the degree recurrence on this grid
    # with |err| / (1 + |P|) <= 1e-12, and reads 3.9e-14.  Against 40-digit
    # mpmath the evaluator reads 2.9e-14 there (4.2e-13 while it ran the
    # order recurrence) and the degree recurrence 1.3e-14; the bound is
    # under twice the first.
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for n in range(0, 21):
        for mo in range(0, min(n, 5) + 1):
            for x in (0.1, 0.3, 0.5, 0.7, 0.9):
                with mpmath.workdps(40):
                    ref = complex(_mpmath_legenp_integer_order(mpmath, n, mo, mpmath.mpf(x)))
                worst = max(worst, abs(assoc_legendre_p(n, mo, x) - ref) / (1.0 + abs(ref)))
    assert worst <= 5.8e-14, worst


def test_kernel_factor_array_does_not_depend_on_array_neighbours():
    # Sorted nodes put the x near 1, whose series stop after a few terms, in
    # chunks of their own; each chunk must still give the whole array's bits.
    rng = random.Random(11)
    gen = np.random.default_rng(11)
    orders = [(rng.uniform(0.05, 6.0), rng.uniform(-2.0, 0.95)) for _ in range(10)]
    for v, u in orders:
        x = np.sort(gen.random(1 << 13) ** (1.0 / rng.uniform(0.05, 0.95)))
        whole = kernel_factor_array(v, u, x)
        chunks = [kernel_factor_array(v, u, x[i : i + 1024]) for i in range(0, len(x), 1024)]
        assert np.array_equal(whole, np.concatenate(chunks)), (v, u)


def test_legendre_simple_values():
    assert abs(assoc_legendre_p(0.0, 0.0, 0.37) - 1.0) < 1e-14
    assert abs(assoc_legendre_p(1.0, 0.0, 0.37) - 0.37) < 1e-14
    assert abs(assoc_legendre_p(1.0, 1.0, 0.6) - (-0.8)) < 1e-14


def test_legendre_half_degree_vs_laplace_oracle():
    got = assoc_legendre_p(0.5, 0.0, 0.5)
    assert abs(got - P_HALF_AT_05) < 1e-11
    assert abs(laplace_legendre(0.5, 0.5) - P_HALF_AT_05) < 1e-13


def test_legendre_domain():
    with pytest.raises(DomainError):
        assoc_legendre_p(1.0, 0.0, 1.5)


def test_recurrence_explicit_values():
    assert abs(legendre_recurrence(2, 0, 0.5)[-1] - (-0.125)) < 1e-14
    assert abs(legendre_recurrence(1, 1, 0.6)[-1] - (-0.8)) < 1e-14
    # explicit cubic: 15 x (1 - x^2) at x = 0.3
    assert abs(legendre_recurrence(3, 2, 0.3)[-1] - 15 * 0.3 * 0.91) < 1e-12


def test_recurrence_bounds():
    with pytest.raises(DomainError):
        legendre_recurrence(300, 0, 0.5)
    with pytest.raises(DomainError):
        legendre_recurrence(5, 6, 0.5)


def test_degree_symmetry():
    rng = random.Random(21)
    for _ in range(40):
        v = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        u = complex(rng.uniform(-2, 0.9), rng.uniform(-1, 1))
        x = rng.uniform(0.05, 0.95)
        a = assoc_legendre_p(v, u, x)
        b = assoc_legendre_p(-v - 1.0, u, x)
        assert abs(a - b) <= 1e-11 * (1.0 + abs(a))


def test_kernel_factor_two_evaluation_orders():
    rng = random.Random(22)
    for _ in range(40):
        v = complex(rng.uniform(-2, 3), rng.uniform(-1, 1))
        u = complex(rng.uniform(-2, 0.9), rng.uniform(-1, 1))
        x = rng.uniform(0.02, 0.98)
        direct = complex(kernel_factor_array(v, u, x))
        via_p = assoc_legendre_p(v, u, x) * (1.0 - x * x) ** (-u / 2.0)
        assert abs(direct - via_p) <= 1e-11 * (1.0 + abs(direct))


@pytest.mark.parametrize("u", [1.0, 2.0])
def test_kernel_rejects_positive_integer_orders(u):
    # The kernel lives on the strip Re u < 1, so it sums one Gauss series
    # and a positive integer order, where that series has a pole, raises.
    x = np.array([0.2, 0.5, 0.8])
    with pytest.raises(DomainError, match="Re u < 1"):
        kernel_series(1.3, u)
    with pytest.raises(DomainError, match="Re u < 1"):
        kernel_factor_array(1.3, u, x)
    ps = ParameterSet(k=2, a=1.5, m=0.4, u=-0.4, v=1.3, mu=-0.6, nu=0.7)
    for bad in (ps.replace(u=u), ps.replace(mu=u)):
        with pytest.raises(DomainError, match="Re u < 1"):
            Integrand6D(bad)


def test_negative_integer_order_consistency():
    # P_v^{-m} = (-1)^m (v-m)!/(v+m)! P_v^m for integer degree and order
    v, m, x = 4, 2, 0.43
    lhs = assoc_legendre_p(float(v), float(-m), x)
    rhs = (
        (-1) ** m
        * math.factorial(v - m)
        / math.factorial(v + m)
        * assoc_legendre_p(float(v), float(m), x)
    )
    assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))
    assert rgamma(1.0 - (-m)) != 0.0
