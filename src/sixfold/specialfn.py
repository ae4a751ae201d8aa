"""Scalar special functions on the complex plane.

Gamma family (log-gamma, gamma, digamma, polygamma, harmonic numbers) and
zeta family (Hurwitz zeta, Riemann zeta).  Everything is
double precision, principal branch, and pure: no caches, no globals.

Methods: Lanczos approximation for log-gamma (shifted by recurrence on the
left half-plane), one Stirling series plus upward recurrence for digamma
and polygamma, reflected far enough left, Euler-Maclaurin with a fixed
Bernoulli table for Hurwitz zeta.
"""

from __future__ import annotations

import cmath
import math

from .core import DomainError, PoleError, nearest_int

EULER_GAMMA = 0.5772156649015329

# Bernoulli numbers B_2, B_4, ..., B_26.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
    8553103.0 / 6.0,
)

# Stirling-series coefficients B_j (j+n-1)! / j! of psi^(n), j = 2, 4, ..., 26,
# one row per order n = 0..12.
_STIRLING = tuple(
    tuple(b * math.factorial(j + n - 1) / math.factorial(j) for j, b in zip(range(2, 28, 2), _BERNOULLI))
    for n in range(13)
)

# Lanczos g = 607/128, 15 coefficients.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _eulerian_rows(top: int) -> tuple[tuple[int, ...], ...]:
    """Eulerian numbers A(n, j), j = 0..n-1, for n = 0..top: the
    coefficients of sum_(j>=1) j^n q^j = q A_n(q) / (1 - q)^(n+1)."""
    rows = [(1,)]
    for n in range(1, top + 1):
        prev = rows[-1] + (0,)
        rows.append(tuple((j + 1) * prev[j] + (n - j) * (prev[j - 1] if j else 0) for j in range(n)))
    return tuple(rows)


_EULERIAN = _eulerian_rows(12)
# psi^(n), n >= 1, reflects where Re z is below this.  The upward recurrence
# from there takes about 15 + 1.5 n steps, which cost as much as the
# reflection; further left it takes one more step per unit of Re z, and its
# terms cancel (README, Accuracy notes).
_REFLECT_BELOW = -5.0

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_POLE_TOL = 1e-13


def _lanczos_log_gamma(z: complex) -> complex:
    # Valid for Re(z) >= 0.5.
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (z - 1 + i)
    t = z + _LANCZOS_G - 0.5
    return _LOG_SQRT_TWO_PI + (z - 0.5) * cmath.log(t) - t + cmath.log(acc)


def log_gamma(z: complex) -> complex:
    """Principal-branch log-gamma, continuous off the ray (-inf, 0].

    gamma(z) = exp(log_gamma(z)); poles at the non-positive integers raise.
    """
    z = complex(z)
    if (pole := nearest_int(z, _POLE_TOL)) is not None and pole <= 0:
        raise PoleError(f"log_gamma pole at z={z!r}")
    if z.real >= 0.5:
        return _lanczos_log_gamma(z)
    # Shift right with log(z)(z+1)...(z+n-1) subtracted; principal logs of
    # points off the negative real axis keep the branch continuous.
    n = int(math.ceil(0.5 - z.real))
    shift = 0.0 + 0.0j
    for j in range(n):
        shift += cmath.log(z + j)
    return _lanczos_log_gamma(z + n) - shift


def gamma(z: complex) -> complex:
    """Complex gamma function (reflection used for Re(z) < 0.5)."""
    z = complex(z)
    if (pole := nearest_int(z, _POLE_TOL)) is not None and pole <= 0:
        raise PoleError(f"gamma pole at z={z!r}")
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    return cmath.exp(_lanczos_log_gamma(z))


def rgamma(z: complex) -> complex:
    """1/gamma(z); entire, returns 0 at the poles of gamma."""
    z = complex(z)
    if (pole := nearest_int(z, _POLE_TOL)) is not None and pole <= 0:
        return 0.0 + 0.0j
    return 1.0 / gamma(z)


def digamma(z: complex) -> complex:
    """psi(z) = polygamma(0, z)."""
    return polygamma(0, z)


def polygamma(n: int, z: complex) -> complex:
    """psi^(n)(z) for 0 <= n <= 12: upward recurrence to |z| >= 10 + 1.5 n,
    then the Stirling series, whose leading term is -log z at n = 0 and
    (n-1)!/z^n otherwise.  psi itself reflects on Re(z) < 1/2 by
    psi(z) = psi(1-z) - pi cot(pi z), cot taken at z less its nearest
    integer, and n >= 1 on Re(z) < -5 by
    psi^(n)(z) = (-1)^n psi^(n)(1-z) - pi d^n/dz^n cot(pi z)
    (``_REFLECT_BELOW``, ``_cot_derivative``), where the recurrence would
    walk one step per unit of Re z.

    Worst relative error against 30-digit mpmath on Re z in [-8, 8],
    Im z in [-4, 4], 0.05 from the poles: 1.5e-15 at n = 0 and 1.0e-13 at
    n = 8, the worst order; 4.0e-15 for n >= 1 at Re z in [-1000, -5]
    (README, Accuracy notes)."""
    if n < 0 or n > 12:
        raise DomainError(f"polygamma order must be in [0, 12], got {n}")
    z = complex(z)
    if (pole := nearest_int(z, _POLE_TOL)) is not None and pole <= 0:
        raise PoleError(f"polygamma pole at z={z!r}")
    if n == 0 and z.real < 0.5:
        x = math.pi * (z - round(z.real))
        return _polygamma(0, 1.0 - z) - math.pi * cmath.cos(x) / cmath.sin(x)
    if n and z.real < _REFLECT_BELOW:
        # psi^(n)(1-z) + (-1)^(n+1) psi^(n)(z) = (-1)^n pi d^n/dz^n cot(pi z)
        sign = -1.0 if n % 2 else 1.0
        return sign * _polygamma(n, 1.0 - z) - math.pi ** (n + 1) * _cot_derivative(n, z)
    return _polygamma(n, z)


def _cot_derivative(n: int, z: complex) -> complex:
    """d^n cot / dx^n at x = pi z, for 1 <= n <= 12.  With q = e^(2ix),
    cot x = -i (1 + 2 sum_(j>=1) q^j), so the derivative is
    -2i (2i)^n q A_n(q) / (1 - q)^(n+1), A_n the Eulerian polynomial
    (``_EULERIAN``, positive coefficients).  Against 40-digit mpmath it
    stayed within 1.3e-14 for |Im z| <= 4 and 6.9e-14 out to 100, where
    csc^2(x) times a polynomial in cot x lost up to 6e-10: at n = 12 that
    polynomial cancels by 2.7e6 as cot x nears -i.  Im x >= 0 keeps
    |q| <= 1 (conjugation covers the lower half), z is reduced by the
    nearest integer first, exactly, so the rounding of pi z does not grow
    with |z|, and 1 - q is formed from expm1, so it keeps its digits next
    to the poles."""
    b = 2.0 * math.pi * (z.real - round(z.real))
    a = -2.0 * math.pi * abs(z.imag)
    ea, em = math.exp(a), math.expm1(a)
    q = complex(ea * math.cos(b), ea * math.sin(b))
    one_minus_q = complex(2.0 * math.sin(0.5 * b) ** 2 - em * math.cos(b), -ea * math.sin(b))
    acc = 0j
    for coeff in reversed(_EULERIAN[n]):
        acc = acc * q + coeff
    val = -2j * (2j) ** n * q * acc / one_minus_q ** (n + 1)
    return val.conjugate() if z.imag < 0.0 else val


def _polygamma(n: int, z: complex) -> complex:
    """:func:`polygamma` past its order and pole checks and the reflection."""
    fact_n = math.factorial(n)
    sign = -1.0 if n % 2 == 0 else 1.0  # (-1)^(n-1)
    radius = 10.0 + 1.5 * n
    acc = 0.0 + 0.0j
    while abs(z) < radius or z.real < 0.5:
        # psi^(n)(z) = psi^(n)(z+1) + (-1)^(n+1) n! / z^(n+1)
        acc += sign * fact_n / z ** (n + 1)
        z += 1.0

    zinv = 1.0 / z
    zpow = zinv**n
    lead = -cmath.log(z) if n == 0 else math.factorial(n - 1) * zpow
    total = lead + 0.5 * fact_n * zpow * zinv
    inv2 = zinv * zinv
    term = zpow * inv2
    for coeff in _STIRLING[n]:
        contrib = coeff * term
        total += contrib
        if abs(contrib) <= 1e-17 * abs(total):
            break
        term *= inv2
    return acc + sign * total


def harmonic(w: complex) -> complex:
    """Harmonic number H_w = digamma(w+1) + Euler's constant."""
    return digamma(complex(w) + 1.0) + EULER_GAMMA


def bernoulli_polynomial(n: int, v: complex) -> complex:
    """B_n(v) = sum_j C(n, j) B_j v^(n-j), 0 <= n <= 27, over the non-zero
    B_j: B_0 = 1, B_1 = -1/2 and the table's even B_j."""
    acc = 0.0 + 0.0j
    for j, b in ((0, 1.0), (1, -0.5), *((j, _BERNOULLI[j // 2 - 1]) for j in range(2, n + 1, 2))):
        if j <= n:
            acc += math.comb(n, j) * b * v ** (n - j)
    return acc


def _pow_split(base: complex, expo: complex) -> complex:
    """base**expo with the integer part of Re(expo) done by exact repeated
    multiplication; cuts the |expo|-proportional rounding of exp(expo*log)."""
    n = round(expo.real)
    frac = expo - n
    out = base**n if n else 1.0 + 0.0j
    if frac != 0:
        out *= cmath.exp(frac * cmath.log(base))
    return out


def hurwitz_zeta(s: complex, v: complex) -> complex:
    """Hurwitz zeta(s, v) for Re(v) > 0, s != 1, by Euler-Maclaurin.

    Non-positive integer s uses the exact Bernoulli-polynomial form.  The
    shift count adapts to |s|; Bernoulli corrections run through B_26.
    Left of Re(s) = -1/2 the direct terms cancel against the tail, so
    accuracy falls with Re(s) and rises with v.  Relative error against
    30-digit mpmath, median / worst of 100 points per cell (real v, Im s
    0 or U(-1, 1), |s - 1| >= 0.05):

    Re(s)        v in (0.1, 1)      v in (1, 3)        v in (3, 10)
    [-0.5, 20]   2.0e-16 / 3.3e-15  2.2e-16 / 1.8e-14  2.2e-16 / 1.5e-15
    [-2, -0.5]   1.2e-13 / 2.4e-11  4.7e-15 / 9.4e-13  2.8e-16 / 3.5e-15
    [-4, -2]     9.3e-12 / 2.5e-8   1.1e-13 / 3.3e-10  5.3e-16 / 2.9e-14
    [-6, -4]     5.6e-10 / 1.9e-8   5.6e-13 / 3.2e-9   8.0e-16 / 9.4e-14
    [-8, -6]     2.3e-8 / 2.9e-5    8.0e-11 / 5.1e-7   2.2e-15 / 1.2e-12
    [-10, -8]    2.9e-7 / 7.4e-6    2.5e-9 / 4.6e-6    2.0e-15 / 3.8e-12
    """
    s = complex(s)
    v = complex(v)
    if v.real <= 0:
        raise DomainError(f"hurwitz_zeta requires Re(v) > 0, got v={v!r}")
    if abs(s - 1.0) < 1e-12:
        raise PoleError("hurwitz_zeta pole at s=1")

    n_int = nearest_int(s, _POLE_TOL)
    if n_int is not None and -26 <= n_int <= 0:
        n = -n_int
        return -bernoulli_polynomial(n + 1, v) / (n + 1)

    if s.real >= -0.5:
        target = max(10.0, 0.7 * abs(s) + 4.0)
        n_shift = max(16, int(math.ceil(target - v.real)) + 1)
    else:
        # Keep the expansion point small: every direct term grows like
        # (v+j)^|Re s| and cancels against the tail, so shifting far out
        # destroys digits instead of buying accuracy.
        n_shift = max(1, int(math.ceil(5.0 - v.real)) + 1)

    # Direct terms, Neumaier-compensated.
    acc = 0.0 + 0.0j
    comp = 0.0 + 0.0j
    for j in range(n_shift):
        term = 1.0 / _pow_split(v + j, s)
        new = acc + term
        if abs(acc) >= abs(term):
            comp += (acc - new) + term
        else:
            comp += (term - new) + acc
        acc = new

    w = v + n_shift
    winv = 1.0 / w
    acc += _pow_split(w, 1.0 - s) / (s - 1.0)
    wpow = 1.0 / _pow_split(w, s)
    acc += 0.5 * wpow

    # sum_k B_2k/(2k)! * (s)_{2k-1} * w^(-s-2k+1)
    poch = s  # (s)_1
    term = wpow * winv  # w^(-s-1)
    for idx, b in enumerate(_BERNOULLI):
        j = 2 * (idx + 1)
        contrib = b / math.factorial(j) * poch * term
        acc += contrib
        if abs(contrib) <= 1e-17 * abs(acc):
            break
        poch *= (s + j - 1.0) * (s + j)
        term *= winv * winv
    return acc + comp


def riemann_zeta(s: complex) -> complex:
    return hurwitz_zeta(s, 1.0)
