import math
import random

import numpy as np
import pytest

from oracles import hyp2f1_array_complex, laplace_legendre
from sixfold.core import DomainError, ParameterSet, PoleError
from sixfold.legendre import (
    hyp2f1_array,
    kernel_factor_array,
    kernel_series,
    legendre_recurrence,
)
from sixfold.quad import Integrand6D
from sixfold.specialfn import rgamma

# Fixed by the 64-point Gauss-Legendre Laplace-integral oracle.
P_HALF_AT_05 = 0.7952489081860239


def _hyp2f1(a, b, c, x):
    return complex(hyp2f1_array(a, b, c, np.full(1, x))[0])


def test_hyp2f1_at_zero():
    assert _hyp2f1(0.7 + 0.2j, -1.1, 0.9, 0.0) == 1.0


def test_hyp2f1_log_series_point():
    got = _hyp2f1(1.0, 1.0, 2.0, 0.25)
    expect = -math.log(0.75) / 0.25
    assert abs(got - expect) < 1e-12 * expect


def test_hyp2f1_terminating():
    got = _hyp2f1(-1.0, 2.3, 1.7, 0.3)
    assert abs(got - (1.0 - 2.3 * 0.3 / 1.7)) < 1e-14


def _mpmath_hyp2f1(a, b, c, x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return complex(mpmath.hyp2f1(a, b, c, mpmath.mpf(x)))


def _mpmath_kernel(mpmath, v, u, x):
    """(1 - x^2)^(-u/2) P_v^u(x) in mpmath's working precision."""
    mx, mu = mpmath.mpf(float(x)), mpmath.mpmathify(u)
    return complex(mpmath.legenp(v, mu, mx, type=2) * (1 - mx * mx) ** (-mu / 2))


def test_hyp2f1_c_pole():
    with pytest.raises(PoleError):
        _hyp2f1(0.5, 0.7, -2.0, 0.3)


def test_hyp2f1_terminating_c_pole():
    # a = -3 terminates the series, but the ratio of its third term to its
    # second divides by c + 1 = 0.
    with pytest.raises(PoleError, match="hits a non-positive integer"):
        _hyp2f1(-3, 1, -1, 0.3)


def test_hyp2f1_domain():
    with pytest.raises(DomainError):
        _hyp2f1(0.5, 0.7, 1.0, 0.9)


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
        if (_hyp2f1(-3.3, 4.3, 1.0, lo) * _hyp2f1(-3.3, 4.3, 1.0, mid)).real <= 0.0:
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
    mpmath = pytest.importorskip("mpmath")
    x = np.array([0.05, 0.3, 0.7, 0.95])
    for v, u in ((1.7, -0.6), (2.4, 0.0), (3.0, -2.0), (7.3, -1.2), (9.0, -3.0)):
        got = kernel_factor_array(v, u, x)
        assert got.dtype == np.float64
        for t, g in zip(x, got):
            with mpmath.workdps(30):
                ref = _mpmath_kernel(mpmath, v, u, t).real
            assert abs(g - ref) <= 1e-13 * abs(ref), (v, u, t)
    assert kernel_factor_array(1.7 + 0.1j, -0.6, x).dtype == np.complex128
    assert kernel_factor_array(7.3 + 0.1j, -0.6, x).dtype == np.complex128


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


def _strip_draws(rng, count):
    """(v, u, x) draws for the kernel past degree 4: degree in (4, 60],
    orders on item 12's strip u = 0.5 - v and down to max(-4v, -160), one
    draw in five complex, and x in the interior and within 1e-12..1e-3 of
    each end."""
    draws = []
    for i in range(count):
        v = rng.uniform(4.0, 60.0)
        u = 0.5 - v if i % 2 else rng.uniform(max(-4.0 * v, -160.0), 0.5 - v)
        if i % 5 == 4:
            v, u = complex(v, rng.uniform(-1.0, 1.0)), complex(u, rng.uniform(-1.0, 1.0))
        ends = [10.0 ** rng.uniform(-12.0, -3.0) for _ in range(2)]
        x = np.array([rng.uniform(0.001, 0.999) for _ in range(3)] + ends + [1.0 - d for d in ends])
        draws.append((v, u, x))
    return draws


def test_kernel_factor_array_high_degree_matches_mpmath():
    # Past degree 4 the kernel climbs the degree recurrence from two series
    # seeds; the Gauss series alone is off by up to 2e8 of the scale on
    # these draws.  Against 40-digit mpmath the worst error over each draw's
    # largest |K| reads 1.4e-13 on these 120 draws (24 complex) and 2.2e-13
    # on 200 more (seed 42); on item 12's strips, u = 0.5 - v, it reads
    # 5.6e-15 at v = 40.5 and 3.3e-14 at 60.5, where the series alone reads
    # 1.3e-3 and 2.8e5.
    mpmath = pytest.importorskip("mpmath")
    strips = [(v, 0.5 - v, np.array([0.1, 0.45, 0.9])) for v in (40.5, 60.5)]
    draws = _strip_draws(random.Random(41), 120) + strips
    for v, u, x in draws:
        got = kernel_factor_array(v, u, x)
        with mpmath.workdps(40):
            ref = np.array([_mpmath_kernel(mpmath, v, u, t) for t in x])
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale, (v, u)


@pytest.mark.parametrize("v", [-10.5, -20.5, -30.5, -60.5])
def test_kernel_factor_array_negative_degree_matches_mpmath(v):
    # A degree with Re v < -1/2 is taken to -v - 1 (DLMF 14.9.5) before the
    # series or the recurrence is chosen.  The series at v itself cancels
    # as the degree grows: at v = -20.5 it is 2.2e-9 of the scale off and at
    # -30.5 1.7e-3.  The worst error here reads 4.5e-15 of the scale.
    mpmath = pytest.importorskip("mpmath")
    x = np.array([1e-9, 0.001, 0.2, 0.45, 0.7, 0.95, 1.0 - 1e-6, 1.0 - 1e-12])
    got = kernel_factor_array(v, -0.4, x)
    with mpmath.workdps(40):
        ref = np.array([_mpmath_kernel(mpmath, v, -0.4, t) for t in x])
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_kernel_on_a10_grid_matches_mpmath():
    # A10 checks the kernel at order -mo, turned into P_n^mo by the Ferrers
    # relation, against the degree recurrence on this grid with
    # |err| / (1 + |P|) <= 1e-12, and reads 3.1e-14.  Against 40-digit
    # mpmath the kernel reads 2.9e-14 there, as did the scalar twin it
    # replaced, and the Gauss series alone 1.9e-9; the bound is about twice
    # the first.
    mpmath = pytest.importorskip("mpmath")
    xs = np.array((0.1, 0.3, 0.5, 0.7, 0.9))
    worst = 0.0
    for n in range(0, 21):
        for mo in range(0, min(n, 5) + 1):
            ferrers = (-1) ** mo * math.factorial(n + mo) / math.factorial(n - mo)
            got = ferrers * (1.0 - xs * xs) ** (-mo / 2) * kernel_factor_array(n, -mo, xs)
            for x, p in zip(xs, got):
                with mpmath.workdps(40):
                    mx = mpmath.mpf(float(x))
                    scale = (-1) ** mo * mpmath.gamma(n + mo + 1) / mpmath.gamma(n - mo + 1)
                    ref = float(scale * mpmath.legenp(n, -mo, mx, type=2))
                worst = max(worst, abs(p - ref) / (1.0 + abs(ref)))
    assert worst <= 6e-14, worst


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


@pytest.mark.parametrize(
    "v, u", [(0.9, -0.6), (1.35, 0.2), (2.0, -0.4), (3.0, -1.0), (7.3, -6.8), (12.0, -3.0)]
)
def test_caller_rows_give_the_allocating_bits(v, u):
    # Non-integer degrees and the terminating series of integer ones, summed
    # as one series or, past degree 4, climbed by the degree recurrence:
    # rows move where the kernel and its Gauss series are written, no bit.
    # x is read only to form 1 - x, or to copy it, before any row is
    # written, so any of the kernel's rows may be x itself.
    x = np.random.default_rng(35).uniform(0.0, 1.0, 300)
    rows = np.full((5, 300), np.nan)
    for omx in (None, 1.0 - x):
        want = kernel_factor_array(v, u, x, omx)
        got = kernel_factor_array(v, u, x, omx, out=tuple(rows[:4]))
        assert np.shares_memory(got, rows[0]) and np.array_equal(got, want)
    want = kernel_factor_array(v, u, x)
    for i in range(4):
        rows[4] = x
        lent = [rows[0], rows[1], rows[2], rows[3]]
        lent[i] = rows[4]
        assert np.array_equal(kernel_factor_array(v, u, rows[4], out=tuple(lent)), want), i
    if v > 4.0:  # the kernel sums no series of degree v
        return
    w = (1.0 - x) / 2.0
    want = hyp2f1_array(-v, v + 1.0, 1.0 - u, w)
    got = hyp2f1_array(-v, v + 1.0, 1.0 - u, w, kernel_series(v, u), out=(rows[0], rows[1]))
    assert np.shares_memory(got, rows[0]) and np.array_equal(got, want)


def test_caller_rows_keep_the_checks():
    x = np.array([0.1, 0.3, 0.2])
    rows = np.empty((4, 3))
    with pytest.raises(DomainError):
        hyp2f1_array(0.3, 1.4, 0.8, np.array([0.1, 0.6, 0.2]), out=(rows[0], rows[1]))
    with pytest.raises(DomainError):  # 1 - x = 1.2: the series at 0.6
        kernel_factor_array(0.9, -0.6, np.array([0.5, -0.2, 0.3]), out=tuple(rows))
    # hyp2f1_array reads x to its last step: a row on x would overwrite it.
    for lent in ((x, rows[1]), (rows[0], x), (rows[0], x[1:])):
        with pytest.raises(ValueError, match="share memory"):
            hyp2f1_array(0.3, 1.4, 0.8, x, out=lent)
    # float64 rows take a real kernel only; a complex one does not drop Im.
    with pytest.raises(TypeError):
        kernel_factor_array(1.7 + 0.1j, -0.6, x, out=tuple(rows))


def test_legendre_simple_values():
    # At order 0 the kernel is P_v itself; at order -1, P_1^-1 = sqrt(1 - x^2)/2
    # times the factor sqrt(1 - x^2).
    assert abs(kernel_factor_array(0.0, 0.0, 0.37) - 1.0) < 1e-14
    assert abs(kernel_factor_array(1.0, 0.0, 0.37) - 0.37) < 1e-14
    assert abs(kernel_factor_array(1.0, -1.0, 0.6) - 0.32) < 1e-14


def test_legendre_half_degree_vs_laplace_oracle():
    got = kernel_factor_array(0.5, 0.0, 0.5)
    assert abs(got - P_HALF_AT_05) < 1e-11
    assert abs(laplace_legendre(0.5, 0.5) - P_HALF_AT_05) < 1e-13


def test_legendre_domain():
    # 1 - x = -0.5 puts the series at -0.25, outside [0, 1/2].
    with pytest.raises(DomainError):
        kernel_factor_array(1.0, 0.0, 1.5)


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
    # The kernel at v and at -v - 1 against mpmath's P_v^u: one of the two
    # is taken to the other (DLMF 14.9.5), and the two must be P_v^u.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(21)
    for _ in range(40):
        v = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        u = complex(rng.uniform(-2, 0.9), rng.uniform(-1, 1))
        x = rng.uniform(0.05, 0.95)
        with mpmath.workdps(30):
            ref = _mpmath_kernel(mpmath, v, u, x)
        for degree in (v, -v - 1.0):
            got = complex(kernel_factor_array(degree, u, x))
            assert abs(got - ref) <= 1e-11 * (1.0 + abs(ref)), (degree, u, x)


def test_kernel_factor_two_evaluation_orders():
    # The kernel's collapsed form against P_v^u written out (DLMF 14.3.1)
    # from the same Gauss series, then times (1 - x^2)^(-u/2).
    rng = random.Random(22)
    for _ in range(40):
        v = complex(rng.uniform(-2, 3), rng.uniform(-1, 1))
        u = complex(rng.uniform(-2, 0.9), rng.uniform(-1, 1))
        x = rng.uniform(0.02, 0.98)
        direct = complex(kernel_factor_array(v, u, x))
        f = _hyp2f1(-v, v + 1.0, 1.0 - u, (1.0 - x) / 2.0)
        via_p = ((1.0 + x) / (1.0 - x)) ** (u / 2.0) * rgamma(1.0 - u) * f * (1.0 - x * x) ** (-u / 2.0)
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
    # P_v^{-m} = (-1)^m (v-m)!/(v+m)! P_v^m for integer degree and order:
    # the kernel at order -m against the degree recurrence at order m.
    v, m, x = 4, 2, 0.43
    lhs = kernel_factor_array(float(v), float(-m), x) * (1.0 - x * x) ** (-m / 2)
    rhs = (-1) ** m * math.factorial(v - m) / math.factorial(v + m) * legendre_recurrence(v, m, x)[-1]
    assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))
    assert rgamma(1.0 - (-m)) != 0.0
