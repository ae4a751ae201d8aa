"""Independent oracles used to fix expected test values.

Each oracle deliberately avoids the algorithm used by the implementation it
checks: Stirling/recurrence instead of Lanczos for gamma, partial sums with
tail bounds instead of Euler-Maclaurin for zeta values, Abel summation for
divergent alternating series, the Laplace integral for Legendre functions,
literal enumeration for the regrouped tensor sum and the whole grid for
its blocks of columns, plain unbuffered arithmetic for the buffered QMC
pipeline, the sequential Sobol recurrence for the doubling that builds the
points, a rule built per call for the Laplace form's shared one.
Derivatives and jet coefficients are checked against Cauchy-formula Taylor
coefficients, ``sixfold.acceptance.taylor_coefficients`` (the trapezoid
rule on a circle), rather than central differences: they need no extended
precision.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from sixfold.core import refuse
from sixfold.quad import (
    _SOBOL_BITS,
    _direction_numbers,
    _splitmix64_stream,
    sobol_points,
    tanh_sinh,
    tanh_sinh_nesting,
    tensor_refusal,
)
from sixfold.specialfn import rgamma

# 50-term Stirling series coefficients B_2j / (2j (2j-1)) as exact fractions
# of the tabulated Bernoulli numbers; generated on the fly with Fraction so
# the oracle does not share the implementation's float table.
from fractions import Fraction


def _bernoulli_fractions(count: int) -> list[Fraction]:
    # Akiyama-Tanigawa algorithm, exact rationals.
    out = []
    a = []
    for m in range(2 * count + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


_BERN = _bernoulli_fractions(50)  # B_0 .. B_100


def stirling_log_gamma(z: complex, terms: int = 50, shift: int = 40) -> complex:
    """High-order Stirling/recurrence oracle for log gamma.

    Shifts z far to the right, applies the Stirling asymptotic series with
    ``terms`` Bernoulli terms, and removes the shift with principal logs.
    """
    z = complex(z)
    acc = 0.0 + 0.0j
    for j in range(shift):
        acc += cmath.log(z + j)
    w = z + shift
    series = 0.0 + 0.0j
    winv2 = 1.0 / (w * w)
    power = 1.0 / w
    for j in range(1, terms + 1):
        b = _BERN[2 * j]
        series += float(b) / (2 * j * (2 * j - 1)) * power
        power *= winv2
    return (
        (w - 0.5) * cmath.log(w)
        - w
        + 0.5 * math.log(2.0 * math.pi)
        + series
        - acc
    )


def stirling_gamma(z: complex) -> complex:
    return cmath.exp(stirling_log_gamma(z))


def zeta_partial(s: float, terms: int, v: float = 1.0) -> tuple[float, float]:
    """Partial sum of sum (v+n)^-s with an integral tail bound (s > 1)."""
    total = math.fsum((v + n) ** -s for n in range(terms))
    tail_hi = (v + terms - 1) ** (1.0 - s) / (s - 1.0)
    return total, tail_hi


def alternating_sum(f, terms: int) -> float:
    """sum (-1)^n f(n), f monotone decreasing -> error < |f(terms)|."""
    return math.fsum((-1.0) ** n * f(n) for n in range(terms))


def abel_sum_alternating(f, xs=(0.9, 0.95, 0.975, 0.9875), degree: int = 3) -> float:
    """Abel summation of sum (-1)^n f(n): evaluate at x -> 1-, extrapolate.

    Polynomial extrapolation in (1-x); works for polynomially growing f.
    """
    vals = []
    for x in xs:
        total = 0.0
        power = 1.0
        n = 0
        while True:
            term = power * f(n)
            total += term
            n += 1
            power *= -x
            if abs(power) * abs(f(n)) < 1e-16 and n > 50:
                break
        vals.append(total)
    coeffs = np.polyfit([1.0 - x for x in xs], vals, degree)
    return float(coeffs[-1])


def brute_lerch_unit(z: complex, s: complex, v: complex, terms: int = 1_000_000) -> complex:
    """Brute partial sums of Phi on the unit circle with Richardson-style
    averaging of the oscillating tail (Cesaro over one period block)."""
    n = np.arange(terms, dtype=float)
    vals = np.exp(n * cmath.log(z).imag * 1j) * np.exp(-s * np.log(v + n))
    csum = np.cumsum(vals)
    # average the partial sums over the last block to damp the oscillation
    block = csum[-20000:]
    return complex(block.mean())


def laplace_legendre(v: float, x: float, n: int = 64) -> float:
    """Laplace integral P_v(x) = (1/pi) int_0^pi (x + i sqrt(1-x^2) cos t)^v dt."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    t = 0.5 * math.pi * (nodes + 1.0)
    w = 0.5 * math.pi * weights
    base = x + 1j * math.sqrt(1.0 - x * x) * np.cos(t)
    vals = np.exp(v * np.log(base))
    return float(np.sum(w * vals).real / math.pi)


def hyp2f1_array_complex(a: complex, b: complex, c: complex, x: np.ndarray) -> np.ndarray:
    """The Gauss series as ``hyp2f1_array`` sums it, written out in complex
    arithmetic with plain loops: the Maclaurin coefficients t_1, t_2, ...
    to the same stop and the Taylor shift about 1/4, one coefficient at a
    time in the same order, both in np.clongdouble; then the same tail cut
    of the coefficients rounded to complex128 and Horner's rule for
    F = 1 + x H(x) in s = x - 1/4.  The reference for the float64 series,
    whose real part must match it bit for bit."""
    x = np.asarray(x, dtype=float)
    a, b, c = (np.clongdouble(complex(p)) for p in (a, b, c))
    past = max(abs(a), abs(b), abs(c))
    t = []
    term = np.clongdouble(1.0)
    total = np.longdouble(1.0)
    n = 0
    terminating = True
    while a + n != 0 and b + n != 0:
        if abs(c + n) < 1e-13:
            raise ZeroDivisionError(f"hyp2f1 pole: c={complex(c)!r}")
        term = term * ((a + n) * (b + n) * (1.0 / ((c + n) * (n + 1.0))))
        t.append(term)
        n += 1
        size = np.ldexp(abs(term), -n)
        total = total + size
        if n > past and size < 1e-20 * total:
            terminating = False
            break
        if n == 512:
            raise ArithmeticError("hyp2f1 series needs more than 512 terms")
    coef = []
    for j in range(len(t)):
        binom = np.longdouble(1.0)  # C(j+m, j) 4^-m
        acc = np.clongdouble(0.0)
        for m in range(len(t) - j):
            if m:
                binom = binom * (np.longdouble(j + m) / (4.0 * np.longdouble(m)))
            acc = acc + binom * t[j + m]
        coef.append(complex(acc))
    if not terminating:
        tail = [0.0] * len(coef)
        run = 0.0
        for j in reversed(range(len(coef))):
            run = run + abs(coef[j]) * 0.25**j
            tail[j] = run
        coef = coef[: next((j for j, r in enumerate(tail) if r < 1e-17 * tail[0]), len(coef))]
    out = np.full(x.shape, coef[-1] if coef else 0.0, dtype=complex)
    s = x - 0.25
    for cj in reversed(coef[:-1]):
        out = out * s + cj
    return out * x + 1.0


def tanh_sinh_01(f, level: int = 9) -> float:
    """Self-contained tanh-sinh quadrature over (0,1) for real integrands.

    ``f(x, one_minus_x)`` receives the complementary coordinate exactly so
    kernels singular at either endpoint keep full precision.
    """
    h = 2.0 ** (-level)
    total = 0.0
    j = 0
    while True:
        t = j * h
        y = 0.5 * math.pi * math.sinh(t)
        if y > 300.0:
            break
        e2 = math.exp(-2.0 * y)
        hi = 1.0 / (1.0 + e2)
        lo = e2 / (1.0 + e2)
        w = h * 0.25 * math.pi * math.cosh(t) * 4.0 * e2 / (1.0 + e2) ** 2
        if j == 0:
            total += w * f(hi, lo)
        else:
            total += w * (f(hi, lo) + f(lo, hi))
        j += 1
    return total


def integrate_6d_brute(f, rules) -> complex:
    """Literal tensor-sum enumeration, the reference for
    the tensor sum's binomial regrouping of S^k (``quad._tensor_sum``).

    O(prod n_i) work; keep the rules tiny.
    """
    refuse(tensor_refusal(f.ps))
    kk = f.k_int
    rx, ry, rp, rq, rt, rz = rules
    ax = rx.weights * f.x_factor(rx.nodes, rx.complement)
    ay = ry.weights * f.y_factor(ry.nodes, ry.complement)
    gp, gq, gt, gz = (r.weights for r in (rp, rq, rt, rz))
    lp, lq, lt, lz = (r.log_nodes for r in (rp, rq, rt, rz))
    w4 = (
        gp[:, None, None, None]
        * gq[None, :, None, None]
        * gt[None, None, :, None]
        * gz[None, None, None, :]
    )
    t4 = 0.5 * (
        -lp[:, None, None, None]
        - lq[None, :, None, None]
        + lt[None, None, :, None]
        + lz[None, None, None, :]
    )
    total = 0.0 + 0.0j
    for i, wx in enumerate(ax):
        for j, wy in enumerate(ay):
            s_vals = f.log_a + np.log(rx.nodes[i]) - np.log(ry.nodes[j]) + t4
            total += wx * wy * np.sum(w4 * s_vals**kk)
    return complex(total)


def tensor_sum_whole_grid(f, rules) -> complex:
    """``quad._tensor_sum`` summed over the whole grid at once: the nx x ny
    arrays of c0 = log a + ln x - ln y and of its Horner polynomial, then
    ax @ acc @ ay.  The reference for the sum made 32 columns at a time,
    which must give its bits where BLAS runs one thread."""
    refuse(tensor_refusal(f.ps))
    kk = f.k_int
    rx, ry, rp, rq, rt, rz = rules
    ax = rx.weights * f.x_factor(rx.nodes, rx.complement)
    ay = ry.weights * f.y_factor(ry.nodes, ry.complement)
    joint = [1.0]
    for rule, sign in zip((rp, rq, rt, rz), (-0.5, -0.5, 0.5, 0.5)):
        term = rule.weights
        mhat = [np.sum(term)]
        for r in range(1, kk + 1):
            term = term * (sign * rule.log_nodes) / r
            mhat.append(np.sum(term))
        joint = np.convolve(joint, mhat)[: kk + 1]
    c0 = f.log_a + np.log(rx.nodes)[:, None] - np.log(ry.nodes)[None, :]
    acc = np.full(c0.shape, joint[0], dtype=c0.dtype)
    for r in range(1, kk + 1):
        acc *= c0
        acc += math.perm(kk, r) * joint[r]
    return complex(ax @ acc @ ay)


def sobol_antonov_saleev(count: int) -> np.ndarray:
    """The first ``count`` Sobol points one at a time, in Python integers, by
    Antonov and Saleev's recurrence: point i is point i - 1 XOR direction row
    ctz(i), the number of trailing zero bits of i.  Axis-major uint32, shape
    (6, count), like ``quad.sobol_points``, whose reflected doubling it checks."""
    direction = _direction_numbers().tolist()
    points = [[0] * len(direction[0])]
    for i in range(1, count):
        row = direction[(i & -i).bit_length() - 1]
        points.append([p ^ d for p, d in zip(points[-1], row)])
    return np.array(points, dtype=np.uint32).T


def _coupling_power(f, s_vals: np.ndarray) -> np.ndarray:
    """S^k the plain way: repeated products of S (inverted for k < 0) for
    integer k, else exp(k log S), both in complex arithmetic for complex S."""
    kk = f.k_int
    if kk is None:
        return np.exp(f.ps.k * np.log(s_vals.astype(complex)))
    out = np.ones_like(s_vals)
    for _ in range(abs(kk)):
        out = out * s_vals
    return 1.0 / out if kk < 0 else out


def qmc_reference(f, spec) -> tuple[complex, float]:
    """The QMC estimate and standard error in plain, unbuffered arithmetic,
    in one process: point-major uint64 Sobol words from the whole sequence,
    the log-axis head and tail picked by ``np.where``, S in complex
    arithmetic where log a is complex, and each replicate summed by one
    ``np.sum`` over all its samples.  The reference for the estimator's
    buffered pipeline, which must give its bits."""
    points = sobol_points(spec.count).T.astype(np.uint64)
    shifts = _splitmix64_stream(spec.shift_seed, spec.replicates * 6)
    px, py = 1.0 / f.m, 1.0 / (1.0 - f.m)
    means = []
    for r in range(spec.replicates):
        words = shifts[6 * r : 6 * r + 6]
        shift = np.array([s >> (64 - _SOBOL_BITS) for s in words], dtype=np.uint64)
        u = (np.bitwise_xor(points, shift).astype(np.float64) + 0.5) * 2.0**-_SOBOL_BITS
        lnu_x, lnu_y = np.log(u[:, 0]), np.log(u[:, 1])
        vals = (px * py) * f.x_kernel(np.exp(px * lnu_x)) * f.y_kernel(np.exp(py * lnu_y))
        log_w = np.zeros(len(u))
        ln_ell = []
        for i, beta in enumerate(f.betas):
            t_exp = -np.log(u[:, 2 + i])
            ln_t = np.log(t_exp)
            head = t_exp <= 1.0
            c = 1.0 / (1.0 + beta)
            head_ln = c * np.minimum(ln_t, 0.0)
            head_lw = math.log(c) - np.exp(head_ln)
            ln_ell.append(np.where(head, head_ln, ln_t))
            log_w += np.where(head, head_lw + t_exp, beta * ln_t)
        s_vals = f.log_a + px * lnu_x - py * lnu_y + 0.5 * (ln_ell[2] + ln_ell[3] - ln_ell[0] - ln_ell[1])
        samples = vals * np.exp(log_w) * _coupling_power(f, s_vals)
        means.append(complex(np.sum(samples)) / spec.count)
    mean = sum(means) / len(means)
    var = sum(abs(m - mean) ** 2 for m in means) / (len(means) - 1)
    return mean, math.sqrt(var / len(means))


def laplace_reference(z: complex, s: complex, v: complex) -> tuple[complex, float]:
    """The Laplace-form Lerch sum and its estimate |S_6 - S_5|, built from a
    fresh ``tanh_sinh(6)`` on every call: the ray turned by -arg(v)/2, the
    panels (0, 1] and [1, 1 + 46/Re(c v)] stacked, level 5 read from the
    even nodes at twice the weights.  The reference for ``_laplace_phi``,
    which reads a shared, read-only level-6 rule and must give its bits on
    every kernel set."""
    half = -0.5 * cmath.phase(v)
    turn = cmath.exp(1j * half)
    rate = v * turn
    span = 46.0 / rate.real
    rule = tanh_sinh(6)
    coarse, added = tanh_sinh_nesting(rule)
    x = np.stack([rule.nodes, 1.0 + span * rule.nodes])
    w = np.stack([rule.weights, span * rule.weights])
    terms = w * np.exp((s - 1.0) * np.log(x) - rate * x) / (1.0 - z * np.exp(-turn * x))
    prev = np.sum(2.0 * terms[:, coarse])
    total = 0.5 * prev + np.sum(terms[:, added].ravel())
    scale = rgamma(s) * cmath.exp(1j * half * s)
    return complex(scale * total), float(abs(scale * (total - prev)))
