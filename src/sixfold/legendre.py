"""Associated Legendre functions of the first kind on (0, 1).

Complex degree and order are supported through the Gauss hypergeometric
representation

    P_v^u(x) = ((1+x)/(1-x))^(u/2) / Gamma(1-u) * 2F1(-v, v+1; 1-u; (1-x)/2)

with principal powers of the positive base (1+x)/(1-x) (DLMF 14.3.1), on
the strip Re u < 1.  :func:`kernel_factor_array` is the package's one
evaluator: that one series up to Re v = 4, and past it the three-term
degree recurrence (DLMF 14.10.3) climbed from two series seeds.
:func:`legendre_recurrence`, at integer degree and order, is the oracle
acceptance criterion A10 checks it against.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConvergenceError, DomainError, PoleError, nearest_int
from .specialfn import rgamma

_MAX_TERMS = 512
_ORDER_TOL = 1e-12
_SERIES_DEGREE = 4.0  # past this Re v the kernel climbs the degree recurrence


def gauss_taylor(a: complex, b: complex, c: complex) -> np.ndarray:
    """Taylor coefficients c_0..c_N about w = 1/4 of H(w) = (F(w) - 1)/w,
    F = 2F1(a, b; c; w): the polynomial :func:`hyp2f1_array` sums.  They
    are float64 when a, b and c are real, complex128 otherwise, and depend
    on a, b and c alone.

    H's Maclaurin coefficients are F's, t_n = t_(n-1) (a+n-1)(b+n-1) /
    ((c+n-1) n) from t_0 = 1, less the first.  They run to the last
    non-zero t_n of a terminating series (a or b a non-positive integer),
    or else to the first n past max(|a|, |b|, |c|) at which |t_n| 2^-n
    falls below 1e-20 of sum |t_i| 2^-i; from there on the terms fall
    about as 2^-n at w = 1/2.  c at a non-positive integer raises
    PoleError unless the series terminates first, and more than 512 terms
    raise ConvergenceError.

    The Taylor shift c_j = sum_(k >= j) C(k, j) 4^(j-k) t_(k+1) re-expands
    that polynomial about 1/4, each sum taken in order of k.  Its sums
    cancel where the t_n alternate in sign, so the t_n and the shift run
    in extended precision (np.longdouble, plain double on Windows and
    macOS arm64) and the c_j are rounded to double once.  A terminating
    series keeps every c_j, the exact polynomial up to rounding.
    Otherwise the expansion ends at the first N with sum_(j > N) |c_j| 4^-j
    below 1e-17 of sum_j |c_j| 4^-j, which bounds what it drops on
    |w - 1/4| <= 1/4; F is analytic on |w| < 1, so |c_j| 4^-j falls like
    3^-j.

    The quotients in t_n are products with a reciprocal, which numpy's
    complex division forms exactly for a real divisor, those of the shift
    are real, and the rest takes products and sequential sums only: with
    real parameters passed as complex numbers the real parts come out bit
    for bit the real coefficients.
    """
    a, b, c = complex(a), complex(b), complex(c)
    if a.imag == 0.0 and b.imag == 0.0 and c.imag == 0.0:
        ext, out = np.longdouble, float
        a, b, c = (ext(p.real) for p in (a, b, c))
    else:
        ext, out = np.clongdouble, complex
        a, b, c = (ext(p) for p in (a, b, c))
    past = max(abs(a), abs(b), abs(c))
    size = 64
    while True:
        n = np.arange(size, dtype=np.longdouble)
        zero = (a + n == 0) | (b + n == 0)
        ends = np.flatnonzero(zero | (np.abs(c + n) < 1e-13))
        end = int(ends[0]) if ends.size else size
        # t_1..t_end and, past max(|a|, |b|, |c|), the first small one
        t = np.cumprod((a + n[:end]) * (b + n[:end]) * (1.0 / ((c + n[:end]) * (n[:end] + 1.0))))
        size_n = np.ldexp(np.abs(t), -np.arange(1, end + 1))
        total = np.cumsum(np.concatenate(([np.longdouble(1.0)], size_n)))[1:]
        small = np.flatnonzero((n[:end] + 1.0 > past) & (size_n < 1e-20 * total))
        if small.size:
            return _cut(_taylor_shift(t[: small[0] + 1]).astype(out))
        if end < size and zero[end]:  # a or b reached a non-positive integer
            return _taylor_shift(t).astype(out)
        if end < size:
            raise PoleError(f"hyp2f1 pole: c={complex(c)!r} hits a non-positive integer")
        if size == _MAX_TERMS:
            raise ConvergenceError(f"hyp2f1 series needs more than {_MAX_TERMS} terms")
        size *= 2


def _cut(coef: np.ndarray) -> np.ndarray:
    """coef less the tail past the first N with sum_(j > N) |c_j| 4^-j below
    1e-17 of the whole sum (:func:`gauss_taylor`)."""
    tail = np.cumsum((np.abs(coef) * 0.25 ** np.arange(len(coef)))[::-1])[::-1]
    below = tail < 1e-17 * tail[0]
    return coef[: int(np.argmax(below))] if below.any() else coef


def _taylor_shift(t: np.ndarray) -> np.ndarray:
    """The coefficients about w = 1/4 of sum_k t[k] w^k, in the precision of
    t: the sums of C(j+m, j) 4^-m t[j+m] over m, in order of m."""
    if not len(t):
        return t
    k = np.arange(len(t))
    jm = k[:, None] + k  # row m, column j
    # C(j+m, j) 4^-m as a running product down the rows
    steps = jm.astype(np.longdouble)
    steps[1:] /= 4.0 * steps[1:, :1]
    steps[:1] = 1.0
    hankel = np.concatenate((t, np.zeros_like(t)))[jm]
    return np.cumsum(np.cumprod(steps, axis=0) * hankel, axis=0)[-1]


def hyp2f1_array(
    a: complex, b: complex, c: complex, x: np.ndarray, coef: np.ndarray | None = None, out=None
) -> np.ndarray:
    """2F1(a, b; c; x) over an array of float64 x in [0, 1/2], the package's
    one array sum of the Gauss series: real when a, b and c are real,
    complex otherwise.

    F(x) = 1 + x H(x), with H summed by Horner's rule in s = x - 1/4 from
    its Taylor coefficients about 1/4, ``coef`` = :func:`gauss_taylor`
    (a, b, c), which a caller that holds them passes.  |s| <= 1/4 and F's
    nearest singularity is 3/4 away, so the terms fall like 3^-j, where a
    Maclaurin sum at x = 1/2 falls like 2^-n: the Legendre kernels with
    degree in (0.05, 2.5) and order in (-2, 0.95) take 21-36 terms.  The
    factor x keeps F(0) = 1 exact.  The term count depends on a, b and c
    alone and every step is elementwise, so a node's value does not depend
    on which other nodes share its array: the QMC estimator may run its
    nodes in any chunks.  A terminating series is the exact polynomial,
    summed in float64.

    ``out`` takes two rows of x's shape, the result, in ``coef``'s dtype,
    and scratch for s; x is read to the last step, so a row that shares
    memory with it raises ValueError.  Given none, both are allocated: the
    rows change where the sum is written, not a bit of it.
    """
    x = np.asarray(x, dtype=float)
    if x.size and (x.min() < 0.0 or x.max() > 0.5 + 1e-15):
        raise DomainError("hyp2f1_array needs x in [0, 1/2]")
    coef = gauss_taylor(a, b, c) if coef is None else coef
    if out is None:
        out = np.empty(x.shape, coef.dtype), np.empty(x.shape)
    elif any(np.shares_memory(row, x) for row in out):
        raise ValueError("hyp2f1_array rows must not share memory with x")
    total, s = out
    np.copyto(total, coef[-1] if coef.size else 0.0)
    np.subtract(x, 0.25, out=s)
    for cj in coef[-2::-1]:
        total *= s
        total += cj
    total *= x
    total += 1.0
    return total


def _reflect(v: complex) -> complex:
    """v, or -v - 1 where Re v < -1/2: P_(-v-1)^u = P_v^u (DLMF 14.9.5)."""
    return -v - 1.0 if v.real < -0.5 else v


def _seed_degree(v: complex) -> complex:
    """v - n with n = ceil(Re v - 3): the lower of the two seeds, real part
    in (2, 3], from which the degree recurrence climbs to v in n - 1 steps."""
    return v - math.ceil(v.real - _SERIES_DEGREE + 1.0)


def kernel_series(v: complex, u: complex) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """What :func:`kernel_factor_array` sums for degree v and order u, and
    the one place that chooses it.  A degree with Re v < -1/2 is first
    taken to -v - 1.  Up to Re v = 4 it is the :func:`gauss_taylor`
    coefficients of 2F1(-v, v+1; 1-u); past it, those of the two seeds at
    degrees v - n and v - n + 1, n = ceil(Re v - 3), from which the kernel
    climbs the degree recurrence.  An order within 1e-12 of a positive
    integer raises DomainError: the kernel's strip needs Re u < 1."""
    v, u = _reflect(complex(v)), complex(u)
    mo = nearest_int(u, _ORDER_TOL)
    if mo is not None and mo >= 1:
        raise DomainError(f"Legendre kernel needs Re u < 1 (the strip); u={u!r} is a positive integer")
    if v.real <= _SERIES_DEGREE:
        return gauss_taylor(-v, v + 1.0, 1.0 - u)
    lo = _seed_degree(v)
    return tuple(gauss_taylor(-d, d + 1.0, 1.0 - u) for d in (lo, lo + 1.0))


def kernel_factor_array(
    v: complex,
    u: complex,
    x: np.ndarray,
    one_minus_x: np.ndarray | None = None,
    series: np.ndarray | tuple[np.ndarray, np.ndarray] | None = None,
    out: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """(1 - x^2)^(-u/2) * P_v^u(x) over node arrays - the form the integral
    kernel uses; float64 when v and u are real.

    On the strip Re u < 1 this collapses to
    (1-x)^(-u) * 2F1(-v, v+1; 1-u; (1-x)/2) / Gamma(1-u),
    which stays finite and accurate at both endpoints; a positive integer
    order raises DomainError (:func:`kernel_series`).  A degree with
    Re v < -1/2 is taken to -v - 1 (P_(-v-1) = P_v, DLMF 14.9.5).  Up to
    Re v = 4 the kernel is that Gauss series, the float64 Horner sum about
    (1-x)/2 = 1/4 of :func:`hyp2f1_array`, terminating ones included.
    Past it the series cancels, so the kernel climbs the degree recurrence
    (nu - u + 1) K_(nu+1) = (2 nu + 1) x K_nu - (nu + u) K_(nu-1) (DLMF
    14.10.3; the factor (1 - x^2)^(-u/2) does not depend on nu) from the
    series at the two seeds of :func:`kernel_series`: up to degree 60 it
    holds to 2.2e-13 of the largest |K| of a draw against 40-digit mpmath,
    where the series alone is off by up to 1e9 of it.  Pass one_minus_x
    when 1-x is known to more digits than x itself, and ``series``,
    :func:`kernel_series` (v, u), when the caller holds it: a path that
    evaluates one kernel on many node arrays takes it once.

    ``out`` takes four float64 rows of x's shape for a real kernel: the
    result, then scratch for 1 - x and the power, (1 - x)/2, and the
    Horner variable.  x is read once, to form 1 - x, or past degree 4 to
    copy it, before any row is written, so a row may be x itself; none may
    be ``one_minus_x``, which is read again after a row is written.  Past
    degree 4 only the result row is written and the seeds' rows are
    allocated.  Given none, the rows are allocated: they change where the
    kernel is written, not a bit of it.
    """
    v = _reflect(complex(v))
    u = complex(u)
    real = v.imag == 0.0 and u.imag == 0.0
    if real:
        v, u = v.real, u.real
    series = kernel_series(v, u) if series is None else series
    if isinstance(series, tuple):
        x = np.array(x, dtype=float)  # a copy: a row of ``out`` may be x
        lo = _seed_degree(v)
        prev, cur = (kernel_factor_array(lo + j, u, x, one_minus_x, s) for j, s in enumerate(series))
        for nu in lo + np.arange(1.0, round((v - lo).real)):
            prev, cur = cur, ((2.0 * nu + 1.0) * x * cur - (nu + u) * prev) / (nu - u + 1.0)
        if out is None:
            return cur
        np.copyto(out[0], cur)
        return out[0]
    res, pw, w, s = out or (np.empty(np.shape(x), series.dtype), *(np.empty(np.shape(x)) for _ in range(3)))
    omx = np.subtract(1.0, x, out=pw) if one_minus_x is None else np.asarray(one_minus_x, dtype=float)
    f = hyp2f1_array(-v, v + 1.0, 1.0 - u, np.divide(omx, 2.0, out=w), series, out=(res, s))
    # (1-x)^(-u) / Gamma(1-u), in place of 1 - x; complex u takes a complex row
    pw = np.multiply(-u, np.log(omx, out=pw), out=pw if real else np.empty(pw.shape, complex))
    np.exp(pw, out=pw)
    rg = rgamma(1.0 - u)
    pw *= rg.real if real else rg
    return np.multiply(pw, f, out=f)


def legendre_recurrence(nmax: int, mo: int, x: float) -> list[float]:
    """P_n^mo(x) for n = mo..nmax, integer parameters, by the standard
    three-term degree recurrence (Condon-Shortley phase).  Oracle path."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"legendre_recurrence needs x in (0,1), got {x}")
    if not 0 <= mo <= nmax <= 200:
        raise DomainError("legendre_recurrence needs 0 <= mo <= nmax <= 200")
    s = math.sqrt(1.0 - x * x)
    p_mm = 1.0
    for m in range(1, mo + 1):
        p_mm *= -(2.0 * m - 1.0) * s
    out = [p_mm]
    if nmax == mo:
        return out
    p_prev, p_cur = p_mm, x * (2.0 * mo + 1.0) * p_mm
    out.append(p_cur)
    for n in range(mo + 2, nmax + 1):
        p_next = ((2.0 * n - 1.0) * x * p_cur - (n + mo - 1.0) * p_prev) / (n - mo)
        out.append(p_next)
        p_prev, p_cur = p_cur, p_next
    return out
