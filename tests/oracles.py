"""Independent oracles used to fix expected test values.

Each oracle deliberately avoids the algorithm used by the implementation it
checks: Stirling/recurrence instead of Lanczos for gamma, partial sums with
tail bounds instead of Euler-Maclaurin for zeta values, Abel summation for
divergent alternating series, the Laplace integral for Legendre functions,
central finite differences for jet coefficients, literal enumeration for
the regrouped tensor sum, plain unbuffered arithmetic for the buffered QMC
pipeline.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from sixfold.quad import _SOBOL_BITS, _splitmix64_stream, _tensor_k, sobol_points

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
    """Gauss series over an array in complex arithmetic with the all-node
    stop test on every term: the reference for the float64 series, whose
    term count and real part must match it exactly."""
    x = np.asarray(x, dtype=float)
    a, b, c = complex(a), complex(b), complex(c)
    total = np.ones(x.shape, dtype=complex)
    term = np.ones(x.shape, dtype=complex)
    small = 0
    for n in range(100_000):
        an, bn, cn = a + n, b + n, c + n
        if an == 0 or bn == 0:
            return total
        if abs(cn) < 1e-13:
            raise ZeroDivisionError(f"hyp2f1 pole: c={c!r}")
        term *= (an * bn / (cn * (n + 1.0))) * x
        if np.all(np.abs(term) < 1e-17 * np.abs(total) + 1e-300):
            small += 1
            if small >= 3:
                return total + term
        else:
            small = 0
        total += term
    raise ArithmeticError("hyp2f1 series did not converge")


def hyp2f1_fraction(a: int, b: float, c: float, x: float) -> float:
    """Terminating 2F1 (a a non-positive integer) summed in exact rational
    arithmetic from the binary values of b, c and x."""
    b, c, w = Fraction(b), Fraction(c), Fraction(x)
    total = term = Fraction(1)
    for n in range(-a):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * w
        total += term
    return float(total)


def central_derivative(f, order: int, h) -> complex:
    if order == 1:
        return (f(h) - f(-h)) / (2.0 * h)
    if order == 2:
        return (f(h) - 2.0 * f(0.0 * h) + f(-h)) / h**2
    if order == 3:
        return (f(2 * h) - 2 * f(h) + 2 * f(-h) - f(-2 * h)) / (2.0 * h**3)
    if order == 4:
        return (f(2 * h) - 4 * f(h) + 6 * f(0.0 * h) - 4 * f(-h) + f(-2 * h)) / h**4
    raise ValueError(order)


def richardson_derivative(f, order: int, h: float = 1e-3) -> complex:
    """Central differences at h, h/2, h/4 with two Richardson levels.

    The step is carried as an extended-precision scalar: an ``f`` built on
    numpy scalar functions then evaluates in extended precision too, which
    the 3rd/4th-order stencils need to beat double-rounding noise.
    """
    hw = np.clongdouble(h)
    d1 = central_derivative(f, order, hw)
    d2 = central_derivative(f, order, hw / 2.0)
    d3 = central_derivative(f, order, hw / 4.0)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    return complex((16.0 * r2 - r1) / 15.0)


def closed_form_scalar(ps) -> "callable":
    """Extended-precision evaluator of the collapsed-product scalar
    a^w pi^2 2^(mu+u-1) / sin(pi (m+w)) for real parameter sets."""
    pi_ld = np.clongdouble(np.pi)
    pref = pi_ld**2 * np.exp((np.clongdouble(ps.mu.real) + ps.u.real - 1.0) * np.log(np.clongdouble(2.0)))
    ln_a = np.log(np.clongdouble(ps.a.real))
    m_ld = np.clongdouble(ps.m.real)

    def f(w):
        return pref * np.exp(w * ln_a) / np.sin(pi_ld * (m_ld + w))

    return f


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
    ``integrate_6d_tensor``'s binomial regrouping of S^k.

    O(prod n_i) work; keep the rules tiny.
    """
    kk = _tensor_k(f, rules)
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


def qmc_reference(f, spec, chunk: int = 1 << 14, block: int = 1 << 17) -> tuple[complex, float]:
    """The QMC estimate and standard error in plain, unbuffered arithmetic,
    in one process: row-major uint64 Sobol words from the whole sequence,
    the log-axis head and tail picked by ``np.where``, S in complex
    arithmetic where log a is complex, and each block summed by one
    ``np.sum`` over its concatenated chunks.  The reference for the
    estimator's buffered pipeline, which must give its bits."""
    points = sobol_points(spec.count).astype(np.uint64)
    shifts = _splitmix64_stream(spec.shift_seed, spec.replicates * 6)
    chunk, block = min(chunk, spec.count), min(block, spec.count)
    px, py = 1.0 / f.m, 1.0 / (1.0 - f.m)
    means = []
    for r in range(spec.replicates):
        words = shifts[6 * r : 6 * r + 6]
        shift = np.array([s >> (64 - _SOBOL_BITS) for s in words], dtype=np.uint64)
        sums, parts = [], []
        for c0 in range(0, spec.count, chunk):
            pts = np.bitwise_xor(points[c0 : c0 + chunk], shift)
            u = (pts.astype(np.float64) + 0.5) * 2.0**-_SOBOL_BITS
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
            s_vals = f.log_a + px * lnu_x - py * lnu_y + 0.5 * (
                ln_ell[2] + ln_ell[3] - ln_ell[0] - ln_ell[1]
            )
            parts.append(vals * np.exp(log_w) * f.coupling(s_vals))
            if (c0 + chunk) % block == 0:
                sums.append(complex(np.sum(np.concatenate(parts))))
                parts.clear()
        total = complex(math.fsum(s.real for s in sums), math.fsum(s.imag for s in sums))
        means.append(total / spec.count)
    mean = sum(means) / len(means)
    var = sum(abs(m - mean) ** 2 for m in means) / (len(means) - 1)
    return mean, math.sqrt(var / len(means))
