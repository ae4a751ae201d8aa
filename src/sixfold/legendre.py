"""Associated Legendre functions of the first kind on (0, 1).

Complex degree and order are supported through the Gauss hypergeometric
representation

    P_v^u(x) = ((1+x)/(1-x))^(u/2) / Gamma(1-u) * 2F1(-v, v+1; 1-u; (1-x)/2)

with principal powers of the positive base (1+x)/(1-x).  Positive integer
orders, where 1/Gamma(1-u) vanishes against a pole of the series, go
through an order recurrence instead; its seeds carry the Condon-Shortley
phase, consistent with the hypergeometric limit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import ConvergenceError, DomainError, PoleError, nearest_int
from .specialfn import rgamma

_MAX_TERMS = 100_000
_ORDER_TOL = 1e-12


def hyp2f1(a: complex, b: complex, c: complex, x: float) -> complex:
    """Gauss series sum of 2F1(a, b; c; x) for real x in [0, 1/2].

    A terminating series (a or b a non-positive integer) can cancel down by
    ~|max term| / |sum|.  With a, b and c real it is summed exactly: a
    parameter within 1e-13 of an integer is that integer, the others are
    the binary rationals they already are.  A complex terminating series
    goes through :func:`hyp2f1_array` in extended precision (np.longdouble),
    every other input through it in double precision.  c at a non-positive
    integer raises unless the series terminates first.
    """
    if not 0.0 <= x <= 0.5 + 1e-15:
        raise DomainError(f"hyp2f1 implemented for x in [0, 1/2], got {x}")
    params = (a, b, c)
    ints = [nearest_int(p, 1e-13) for p in params]
    terminating = any(n is not None and n <= 0 for n in ints[:2])
    if terminating and all(n is not None or p.imag == 0 for n, p in zip(ints, params)):
        exact = [p.real if n is None else n for n, p in zip(ints, params)]
        return _hyp2f1_exact_terminating(*exact, x)
    xs = np.full(1, x, dtype=np.longdouble if terminating else float)
    return complex(hyp2f1_array(a, b, c, xs)[0])


def _hyp2f1_exact_terminating(a: float, b: float, c: float, x: float) -> complex:
    """Exact rational sum of a terminating 2F1 with int or float parameters;
    each float and x enter as the exact binary rationals they are."""
    from fractions import Fraction

    # ints stay ints: integer products cost a fraction of Fraction ones
    a, b, c = (p if isinstance(p, int) else Fraction(p) for p in (a, b, c))
    w = Fraction(x)
    total = Fraction(1)
    term = Fraction(1)
    n = 0
    while a + n != 0 and b + n != 0:
        if c + n == 0:
            raise PoleError(f"hyp2f1 pole: c={c} hits a non-positive integer")
        term *= Fraction((a + n) * (b + n), (c + n) * (n + 1)) * w
        total += term
        n += 1
    return complex(float(total))


def hyp2f1_array(a: complex, b: complex, c: complex, x: np.ndarray) -> np.ndarray:
    """Vectorized Gauss series over an array of x in [0, 1/2].

    The package's one series loop.  It runs in the precision of x: float64,
    or np.longdouble when :func:`hyp2f1` sums a complex terminating series
    in extended precision.  Values are real when a, b and c are real, complex
    otherwise.  Float64 input sums terminating series in float64 as well:
    exact and extended-precision sums are a contract of :func:`hyp2f1` only.

    Stops after three consecutive terms below 1e-17 of the partial sum at
    every node.  That all-node test only runs once it holds at the node with
    the largest x, where the series converges slowest: the probe is a
    necessary condition, so the term count does not depend on it.

    A node's value does not depend on which other nodes share its array,
    which lets the QMC estimator run its nodes in chunks.  A sub-array
    stops no later than the whole array, since its stop test is weaker.
    For the real kernels, a = -v, b = v + 1, c = 1 - u > 0 with v > 0, and
    for the order-recurrence seeds (c = 1, 2), the term ratio
    |(a+n)(b+n) / ((c+n)(n+1))| x falls with n while n < v and is below
    x <= 1/2 once n >= v: once the terms fall they keep falling, and they
    fall before any term passes the stop test (while they rise from 1, each
    is at least 1/(n+1) of the sum).  So after a node's stop every later
    term is below 1e-17 |total|, under half an ulp, and leaves it as it is.
    """
    x = np.asarray(x)
    x = x if x.dtype == np.longdouble else x.astype(float, copy=False)
    if x.size and (x.min() < 0.0 or x.max() > 0.5 + 1e-15):
        raise DomainError("hyp2f1_array needs x in [0, 1/2]")
    a = complex(a)
    b = complex(b)
    c = complex(c)
    real = a.imag == 0.0 and b.imag == 0.0 and c.imag == 0.0
    if real:
        a, b, c = a.real, b.real, c.real
    dtype = x.dtype if real else np.result_type(x.dtype, np.complex64)
    if x.dtype == np.longdouble:
        # Form the step coefficients in extended precision too.  Double
        # parameters stay Python scalars: numpy's complex division rounds
        # differently in the last bit and would move the float64 results.
        a, b, c = dtype.type(a), dtype.type(b), dtype.type(c)
    total = np.ones(x.shape, dtype=dtype)
    term = np.ones(x.shape, dtype=dtype)
    step = np.empty(x.shape, dtype=dtype)
    if not x.size:
        return total
    probe = np.unravel_index(np.argmax(x), x.shape)
    small = 0
    for n in range(_MAX_TERMS):
        an, bn, cn = a + n, b + n, c + n
        if an == 0 or bn == 0:
            return total
        if abs(cn) < 1e-13:
            raise PoleError(f"hyp2f1 pole: c={complex(c)!r} hits a non-positive integer")
        np.multiply(an * bn / (cn * (n + 1.0)), x, out=step)
        term *= step
        if abs(term[probe]) < 1e-17 * abs(total[probe]) + 1e-300 and np.all(
            np.abs(term) < 1e-17 * np.abs(total) + 1e-300
        ):
            small += 1
            if small >= 3:
                return total + term
        else:
            small = 0
        total += term
    raise ConvergenceError("hyp2f1_array did not converge within 1e5 terms")


def _order_recurrence(series, v, mo: int, x, w, s):
    """P_v^mo(x) for integer order mo >= 1: the order recurrence from the
    hypergeometric seeds at orders 0 and 1.  series is hyp2f1 or
    hyp2f1_array, w = (1-x)/2 and s = sqrt(1-x^2)."""
    p0 = series(-v, v + 1.0, 1.0, w)
    p1 = -s * (v * (v + 1.0) / 2.0) * series(1.0 - v, v + 2.0, 2.0, w)
    for m in range(1, mo):
        p0, p1 = p1, -2.0 * m * x / s * p1 - (v + m) * (v - m + 1.0) * p0
    return p1


def assoc_legendre_p(v: complex, u: complex, x: float) -> complex:
    """P_v^u(x) for complex degree/order and real x in (0, 1).

    Sums through the scalar :func:`hyp2f1`, so terminating series (integer
    degree) are exact or extended precision, unlike :func:`kernel_factor_array`.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"assoc_legendre_p needs x in (0,1), got {x}")
    v = complex(v)
    u = complex(u)
    mo = nearest_int(u, _ORDER_TOL)
    w = (1.0 - x) / 2.0
    if mo is None or mo < 1:
        pref = cmath.exp(0.5 * u * math.log((1.0 + x) / (1.0 - x)))
        return pref * rgamma(1.0 - u) * hyp2f1(-v, v + 1.0, 1.0 - u, w)
    return _order_recurrence(hyp2f1, v, mo, x, w, math.sqrt((1.0 - x) * (1.0 + x)))


def kernel_factor_array(
    v: complex, u: complex, x: np.ndarray, one_minus_x: np.ndarray | None = None
) -> np.ndarray:
    """(1 - x^2)^(-u/2) * P_v^u(x) over node arrays - the form the integral
    kernel uses; float64 when v and u are real.

    For non-integer order this collapses to
    (1-x)^(-u) * 2F1(-v, v+1; 1-u; (1-x)/2) / Gamma(1-u),
    which stays finite and accurate at both endpoints.  Pass one_minus_x
    when 1-x is known to more digits than x itself.  The series always runs
    in float64 (:func:`hyp2f1_array`), terminating ones included.
    """
    x = np.asarray(x, dtype=float)
    omx = (1.0 - x) if one_minus_x is None else np.asarray(one_minus_x, dtype=float)
    v = complex(v)
    u = complex(u)
    mo = nearest_int(u, _ORDER_TOL)
    real = v.imag == 0.0 and u.imag == 0.0
    if real:
        v, u = v.real, u.real
    w = omx / 2.0
    if mo is None or mo < 1:
        rg = rgamma(1.0 - u)
        f = hyp2f1_array(-v, v + 1.0, 1.0 - u, w)
        return np.exp(-u * np.log(omx)) * (rg.real if real else rg) * f
    p = _order_recurrence(hyp2f1_array, v, mo, x, w, np.sqrt(omx * (1.0 + x)))
    return p * np.exp(-0.5 * u * np.log(omx * (1.0 + x)))


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
