"""Quadrature rules and the direct six-dimensional integration paths.

One-dimensional rules: tanh-sinh on the open unit interval (double
exponential, handles endpoint singularities), Gauss-Laguerre on (0, inf)
with weight e^-x, and ``log_axis_rule``, which joins the two for the
log-power axes.  Tanh-sinh levels nest bit for bit: ``tanh_sinh_nesting``
picks out of one level the nodes of the level below and the nodes the
level adds, so a caller that needs two levels builds one rule.
``gauss_laguerre`` solves a LAPACK eigenproblem; the tensor path reads its
two Gauss-Laguerre rules from constants instead, so no direct path calls
LAPACK.

The six-dimensional integrand, after substituting L = log(1/.) on the four
log-power axes, factors as

    Gx(x) * Gy(y) * prod_i L_i^beta_i e^-L_i * S^k,
    S = log a + log x - log y + (log Lt + log Lz - log Lp - log Lq) / 2.

Both direct paths treat the weight L^beta e^-L on L <= 1 through one
substitution, L = T^(1/(1+beta)) (``_log_axis_head``): it folds L^beta and
the Jacobian into the constant 1/(1+beta), and carries ln L instead of L,
which underflows as Re beta -> -1.

Both direct paths integrate over a real strip: ``Integrand6D`` refuses
strip parameters with an imaginary part of 1e-12 or more, and takes the real
parts of the others once.  Each refusal is a pure predicate of the
parameters that gives its reason or None (``strip_refusal``,
``tensor_refusal``, ``qmc_refusal``); ``Integrand6D`` and both paths raise
their own predicate's reason as InadmissibleError before any work.  The
Legendre kernels and log-axis weights run in float64, and complex numbers
enter only through log a and the coupling S^k, which QMC too forms in
float64, as real and imaginary parts.
Both direct paths read k only as ``ParameterSet.k_int`` and log a only
as ``ParameterSet.log_a``, through ``Integrand6D`` and their refusal
predicates, so ``Integrand6D`` raises DomainError at a = 0.
Both paths return (value, error estimate).  ``integrate_6d_tensor`` sums
the full tensor-product quadrature of the integrand at its two levels
(``_tensor_levels``), tanh-sinh level 5 and level 4 read off that one
rule, its error |fine - coarse|; for integer k >= 0
the sum is reorganized exactly (binomial regrouping of S^k inside the
finite sum) so it runs in milliseconds instead of hours.
``integrate_6d_qmc`` is a digitally-shifted Sobol estimator with a
replicate-based standard error; a replicate's mean has the bits of one
``np.sum`` over its samples, divided by their count, whatever the chunk
size and worker count.
"""

from __future__ import annotations

import math
import cmath
import os
import pickle
import sys
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import (
    DomainError,
    NonFiniteSampleError,
    ParameterSet,
    derive_exponents,
    refuse,
)
from ._laguerre import LAGUERRE_24, LAGUERRE_32
from .legendre import kernel_factor_array, kernel_series

_MAX_LEVEL = 12
_MAX_NODES = 512
# Cap on (pi/2)*sinh(t): keeps the complementary coordinate representable.
_TS_YMAX = 345.0


@dataclass(frozen=True)
class Rule1D:
    """Nodes-and-weights rule; ``complement`` carries 1 - node for rules on
    (0, 1) so endpoint-singular kernels keep full precision near 1, and
    ``log_nodes`` carries ln node for the log-axis rule, whose smallest
    nodes underflow to 0."""

    nodes: np.ndarray
    weights: np.ndarray
    complement: np.ndarray | None = None
    log_nodes: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.weights):
            raise DomainError("rule nodes/weights length mismatch")


def tanh_sinh(level: int) -> Rule1D:
    """Tanh-sinh rule on the open interval (0, 1): points at t = j h,
    h = 2^-level, for j = -jmax..jmax up to the cut-off.  Each t = j h is
    exact, so levels nest bit for bit (``tanh_sinh_nesting``)."""
    if not 1 <= level <= _MAX_LEVEL:
        raise DomainError(f"tanh_sinh level must be in [1, {_MAX_LEVEL}]")
    h = 2.0 ** (-level)
    t_max = math.asinh(2.0 * _TS_YMAX / math.pi)
    t = h * np.arange(int(math.floor(t_max / h)) + 1)
    y = 0.5 * math.pi * np.sinh(t)
    e2 = np.exp(-2.0 * y)
    hi = 1.0 / (1.0 + e2)          # node for +t
    lo = e2 / (1.0 + e2)           # node for -t, and complement for +t
    sech2 = 4.0 * e2 / (1.0 + e2) ** 2
    w = h * (0.25 * math.pi) * np.cosh(t) * sech2

    nodes = np.concatenate([lo[:0:-1], hi])  # t = 0 appears once
    comp = np.concatenate([hi[:0:-1], lo])
    weights = np.concatenate([w[:0:-1], w])
    return Rule1D(nodes=nodes, weights=weights, complement=comp)


def tanh_sinh_nesting(rule: Rule1D) -> tuple[slice, slice]:
    """For ``rule = tanh_sinh(level)``: the index of the nodes
    ``tanh_sinh(level - 1)`` holds (even j, whose weights there are exactly
    twice these), and of the nodes the level adds (odd j).  For a rule sum,
    S_level = S_(level-1) / 2 + the sum over the added nodes."""
    even = (len(rule.nodes) - 1) // 2 % 2  # index 0 holds j = -jmax
    return slice(even, None, 2), slice(1 - even, None, 2)


def gauss_laguerre(n: int) -> Rule1D:
    """Gauss-Laguerre rule: integrates f against e^-x on (0, inf).

    Golub-Welsch on the Jacobi matrix; the weights are the squared first
    eigenvector components, so the rule applied to f = 1 returns 1.  The
    tensor path does not call it: it reads the two rules it needs from
    constants (``_laguerre``, ``_tensor_levels``).
    """
    if not 1 <= n <= _MAX_NODES:
        raise DomainError(f"gauss_laguerre n must be in [1, {_MAX_NODES}]")
    off = np.arange(1.0, n)
    jac = np.diag(2.0 * np.arange(n) + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    evals, evecs = np.linalg.eigh(jac)
    return Rule1D(nodes=evals, weights=evecs[0, :] ** 2)


def _log_axis_head(
    ln_t: np.ndarray, beta: float, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The head substitution L = T^c, c = 1/(1+beta), for T in (0, 1].

    Returns ln L = c ln T and the log weight ln(L^beta e^-L dL/dT) = ln c - L:
    L^beta and the Jacobian c T^(c-1) cancel exactly, so no factor
    underflows however close beta is to -1.  T^c overflows for T > 1, so
    the callers apply it to the head only.  ``out`` takes the two result
    buffers; the first may be ``ln_t`` itself.
    """
    c = 1.0 / (1.0 + beta)
    ln_l, lw = out or (None, None)
    ln_l = np.multiply(c, ln_t, out=ln_l)
    lw = np.exp(ln_l, out=lw)
    return ln_l, np.subtract(math.log(c), lw, out=lw)


def log_axis_rule(alpha: float, ts: Rule1D, lag: Rule1D) -> Rule1D:
    """Composite rule for ∫_0^inf f(L) L^alpha e^-L dL with log-singular f.

    Plain Gauss-Laguerre is polynomially exact but converges like a low
    power of 1/n once f carries the ln^r L factors the coupling kernel
    produces (measured ~n^(-1/4) at alpha = -3/4).  This rule folds the
    weight explicitly: on (0, 1] the tanh-sinh rule ``ts`` in T, with
    L = T^(1/(1+alpha)) (``_log_axis_head``), soaks up the L^alpha ln^r L
    endpoint, and the Gauss-Laguerre rule ``lag``, shifted by 1, handles
    [1, inf) where everything is smooth.  Weights stay positive.
    ``log_nodes`` holds ln L; as alpha -> -1 the head nodes L themselves
    underflow to 0, while ln L and the weights keep the full mass
    Gamma(alpha + 1).
    """
    if alpha <= -1.0:
        raise DomainError(f"log_axis_rule needs alpha > -1, got {alpha}")
    head_ln, head_lw = _log_axis_head(np.log(ts.nodes), alpha)
    tail = 1.0 + lag.nodes
    log_nodes = np.concatenate([head_ln, np.log(tail)])
    weights = np.concatenate(
        [ts.weights * np.exp(head_lw), lag.weights * tail**alpha * math.exp(-1.0)]
    )
    return Rule1D(nodes=np.exp(log_nodes), weights=weights, log_nodes=log_nodes)


# ----------------------------------------------------------------------
# Sobol points with digital shift
# ----------------------------------------------------------------------

_SOBOL_BITS = 32
# (s, a, m_i) per dimension beyond the first (van der Corput) dimension.
_SOBOL_PRIMITIVE = (
    (1, 0, (1,)),
    (2, 1, (1, 3)),
    (3, 1, (1, 3, 1)),
    (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)),
)
# One per integration axis (x, y, p, q, t, z).
_SOBOL_DIM = len(_SOBOL_PRIMITIVE) + 1
# QMC points per pass, a power of two.  A pass's working set, the 384 KiB
# Sobol base, eight float64 rows of 128 KiB and a uint32 word row, is
# 1.5 MiB: it fits a 2 MiB L2 cache.
_QMC_CHUNK = 1 << 14


def _direction_numbers() -> np.ndarray:
    """Direction numbers, shape (32, 6), as uint32."""
    v = np.zeros((_SOBOL_BITS, _SOBOL_DIM), dtype=np.uint32)
    for j in range(_SOBOL_BITS):
        v[j, 0] = 1 << (_SOBOL_BITS - 1 - j)
    for d in range(1, _SOBOL_DIM):
        s, a, m = _SOBOL_PRIMITIVE[d - 1]
        vd = [0] * _SOBOL_BITS
        for j in range(_SOBOL_BITS):
            if j < s:
                vd[j] = m[j] << (_SOBOL_BITS - 1 - j)
            else:
                val = vd[j - s] ^ (vd[j - s] >> s)
                for k in range(1, s):
                    if (a >> (s - 1 - k)) & 1:
                        val ^= vd[j - k]
                vd[j] = val
        v[:, d] = vd
    return v


def sobol_points(count: int) -> np.ndarray:
    """First ``count`` points of the 6-dimensional Sobol sequence (unshifted),
    axis-major: shape (6, count), one row of uint32 words per axis, the
    layout :func:`integrate_6d_qmc` reads; column 0 is the zero point.

    Point i XORs the direction rows over the set bits of its Gray code
    gray(i) = i ^ (i >> 1).  The Gray code is reflected: for t < 2^j,
    gray(2^j + t) = 2^j ^ gray(2^j - 1 - t).  So the points 2^j ..
    2^(j+1) - 1 are the first 2^j points in reverse order XOR direction row
    j.  Each doubling is one XOR per axis into the result; per axis, source
    and destination are disjoint runs of one row, so numpy makes no
    temporary copy, as it would for the two overlapping 2-D views."""
    v = _direction_numbers()
    if count < 1:
        raise DomainError("count must be positive")
    out = np.zeros((_SOBOL_DIM, count), dtype=np.uint32)
    for row, direction in zip(out, v.T):
        for j in range((count - 1).bit_length()):
            n = 1 << j  # slicing stops both sides of the last doubling at count
            np.bitwise_xor(row[n - 1 :: -1][: count - n], direction[j], out=row[n : 2 * n])
    return out


def _sobol_offset(direction: np.ndarray, c0: int) -> np.ndarray:
    """Sobol point c0: the XOR of the direction numbers over the set bits of
    gray(c0) = c0 ^ (c0 >> 1).  For c0 a multiple of a power of two n and
    j < n, gray(c0 + j) = gray(c0) ^ gray(j), so ``sobol_points(c0 + n)[c0:]``
    is ``sobol_points(n)`` XOR this offset."""
    gray = c0 ^ (c0 >> 1)
    bits = [j for j in range(gray.bit_length()) if gray >> j & 1]
    return np.bitwise_xor.reduce(direction[bits], axis=0)


_M64 = (1 << 64) - 1


def _splitmix64_stream(seed: int, n: int) -> list[int]:
    state = seed & _M64
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _M64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        out.append(z ^ (z >> 31))
    return out


@dataclass(frozen=True)
class QmcSpec:
    """Sobol sampling plan: ``count`` points (a power of two in [2^10, 2^32])
    of the 6-dimensional sequence in each of ``replicates`` digital shifts,
    drawn from ``shift_seed``.  ``verify`` uses ``QmcSpec()`` when given none."""

    count: int = 1 << 16
    shift_seed: int = 20170
    replicates: ClassVar[int] = 8

    def __post_init__(self) -> None:
        if self.count < 1024 or self.count & (self.count - 1) != 0:
            raise DomainError("QmcSpec count must be a power of two >= 2^10")
        if self.count > 1 << _SOBOL_BITS:
            raise DomainError(f"QmcSpec count must be at most 2^{_SOBOL_BITS}, the Sobol period")


# ----------------------------------------------------------------------
# The transformed six-dimensional integrand
# ----------------------------------------------------------------------


def strip_refusal(ps: ParameterSet) -> str | None:
    """Why neither direct path runs at ``ps``, or None: both need m, u, v,
    mu and nu real to within 1e-12."""
    real = all(abs(getattr(ps, name).imag) < 1e-12 for name in ("m", "u", "v", "mu", "nu"))
    return None if real else "tensor and qmc paths need real strip parameters"


def tensor_refusal(ps: ParameterSet) -> str | None:
    """Why the tensor path does not run at ``ps``, or None: a real strip,
    then integer k >= 0."""
    kk = ps.k_int
    return strip_refusal(ps) or (None if kk is not None and kk >= 0 else "tensor path needs integer k >= 0")


def qmc_refusal(ps: ParameterSet) -> str | None:
    """Why the qmc path does not run at ``ps``, or None: a real strip, then,
    unless k is a non-negative integer, a off the positive real axis."""
    kk = ps.k_int
    if (kk is None or kk < 0) and abs(ps.a.imag) < 1e-12 and ps.a.real > 0:
        return strip_refusal(ps) or (
            "k is not a non-negative integer and a is on the positive real "
            "axis: the coupling log vanishes inside the domain, where S^k "
            "has a pole or branch point without a principal-value meaning"
        )
    return strip_refusal(ps)


class Integrand6D:
    """Separable pieces of the transformed integrand on (0,1)^2 x (0,inf)^4.

    The one place that knows the integrand is real.  Construction refuses a
    complex strip (``strip_refusal``, raised as InadmissibleError) before
    any series is set up.  Both direct paths read the numbers taken here
    once: Re m, the real parts ``betas`` of the log-axis exponents (p, q,
    t, z), ``log_a`` (``ps.log_a``, a float when its imaginary part is 0),
    ``k_int`` (``ps.k_int``: an int when within 1e-12 of one, else None),
    and the Gauss-series coefficients of the x and y kernels
    (``kernel_series``), which every node array of the path reuses.  So
    construction raises DomainError at a = 0 and at a non-finite k.  Each
    direct path's own predicate, ``tensor_refusal`` or ``qmc_refusal``,
    says what else it needs, and the path assembles its own sum from the
    pieces.  Nothing assigns to these attributes after construction.
    """

    def __init__(self, ps: ParameterSet) -> None:
        refuse(strip_refusal(ps))
        log_a = ps.log_a
        self.ps = ps
        self.m = ps.m.real
        self.betas = tuple(b.real for b in derive_exponents(ps))
        self.log_a = log_a.real if log_a.imag == 0.0 else log_a
        self.k_int = ps.k_int
        self.x_series = kernel_series(ps.v.real, ps.u.real)
        self.y_series = kernel_series(ps.nu.real, ps.mu.real)

    # -- separable pieces -------------------------------------------------

    def x_factor(self, x: np.ndarray, one_minus_x: np.ndarray) -> np.ndarray:
        return np.exp((self.m - 1.0) * np.log(x)) * self.x_kernel(x, one_minus_x)

    def y_factor(self, y: np.ndarray, one_minus_y: np.ndarray) -> np.ndarray:
        return np.exp(-self.m * np.log(y)) * self.y_kernel(y, one_minus_y)

    def x_kernel(self, x: np.ndarray, one_minus_x: np.ndarray | None = None, out=None) -> np.ndarray:
        """The real x kernel: the x factor without x^(m-1), which QMC warps
        away; ``out`` takes the rows of :func:`kernel_factor_array`."""
        return kernel_factor_array(self.ps.v.real, self.ps.u.real, x, one_minus_x, self.x_series, out)

    def y_kernel(self, y: np.ndarray, one_minus_y: np.ndarray | None = None, out=None) -> np.ndarray:
        """The real y kernel: the y factor without y^-m, which QMC warps
        away; ``out`` takes the rows of :func:`kernel_factor_array`."""
        return kernel_factor_array(self.ps.nu.real, self.ps.mu.real, y, one_minus_y, self.y_series, out)

    def coupling(
        self,
        s_re: np.ndarray,
        log_w: np.ndarray,
        prod: np.ndarray,
        re: np.ndarray,
        im: np.ndarray | None,
    ) -> None:
        """Re and Im of prod e^(log_w) S^k, S = s_re + ic with c = Im log a,
        in principal powers, written to ``re`` and ``im``; ``im`` is None,
        and S real, when log a is real.  Real arithmetic throughout, which
        costs a fraction of numpy's complex log and exp, per-element calls
        of the C library's clog and cexp:

        * real S at integer k >= 0, and complex S at k = 0 (S^0 = 1
          whatever S is): (prod e^(log_w)) s_re^k, the power built by
          repeated products in ``log_w``, free once its exp has joined
          prod, and ``im``, where given, zeroed;
        * complex S, integer k: prod e^(log_w) (s_re + ic)^|k| by repeated
          real-pair products, for k < 0 with 1/S = (s_re - ic)/(s_re^2 + c^2),
          its denominator divided out of prod first;
        * other k: ln|S| = log(s_re^2 + c^2)/2 and arg S = atan2(c, s_re).
          Re(k log S) joins log_w before its one exp, and the phase
          theta = Im(k log S) gives cos and sin through h = tan(theta/2),
          cos = (1 - h^2)/(1 + h^2), sin = 2h/(1 + h^2): numpy's float64
          cos and sin call the C library per element, while its tan is
          vectorized (x86-64 with AVX-512).

        Unless k is a non-negative integer, S must stay off 0.  Since
        |S| >= |c| at every point, one scalar check does it: |c| < 1e-300,
        real S included, raises NonFiniteSampleError.  ``s_re``, ``log_w``
        and ``prod`` are overwritten; no branch allocates an array, each
        step writes into these five buffers."""
        kk, c = self.k_int, self.log_a.imag
        if (kk is None or kk < 0) and abs(c) < 1e-300:
            raise NonFiniteSampleError("coupling log argument can hit zero: |Im log a| < 1e-300")
        if kk is None:
            k = complex(self.ps.k)
            np.multiply(s_re, s_re, out=re)
            re += c * c
            np.log(re, out=re)  # ln |S|^2
            np.arctan2(c, s_re, out=im)  # arg S
            log_w += np.multiply(re, 0.5 * k.real, out=s_re)
            half = np.multiply(im, 0.5 * k.real, out=s_re)  # theta / 2
            if k.imag:
                log_w -= np.multiply(im, k.imag, out=im)
                half += np.multiply(re, 0.25 * k.imag, out=re)
            prod *= np.exp(log_w, out=log_w)
            h = np.tan(half, out=half)
            np.multiply(h, h, out=re)
            prod /= np.add(re, 1.0, out=log_w)
            np.multiply(h, prod, out=im)
            im *= 2.0
            np.subtract(1.0, re, out=re)
            re *= prod
            return
        prod *= np.exp(log_w, out=log_w)
        if im is None or kk == 0:  # S^k real: prod s_re^k, with S^0 = 1
            log_w.fill(1.0)
            for _ in range(kk):  # numpy's float power calls pow() per element
                log_w *= s_re
            np.multiply(prod, log_w, out=re)
            if im is not None:
                im.fill(0.0)
            return
        if kk < 0:
            q = np.multiply(s_re, s_re, out=log_w)
            q += c * c
            for _ in range(-kk):
                prod /= q
            c = -c
        np.multiply(prod, s_re, out=re)
        np.multiply(prod, c, out=im)
        for _ in range(abs(kk) - 1):  # (re + i im) (s_re + ic)
            np.multiply(im, c, out=log_w)
            np.multiply(re, c, out=prod)
            re *= s_re
            re -= log_w
            im *= s_re
            im += prod


def _tensor_levels() -> list[tuple[Rule1D, Rule1D]]:
    """The tensor path's (tanh-sinh, Gauss-Laguerre) rule pairs, fine first.

    One ``tanh_sinh`` rule is built, at level 5.  The coarse level 4 is read
    off it as its even nodes at twice their weights (``tanh_sinh_nesting``),
    which is bit for bit ``tanh_sinh(4)``.  The Laguerre rules of n = 32 and
    n = 24 nodes are constants (``_laguerre``), so the path calls no LAPACK.
    """
    fine = tanh_sinh(5)
    held = tanh_sinh_nesting(fine)[0]
    coarse = Rule1D(nodes=fine.nodes[held], weights=2.0 * fine.weights[held], complement=fine.complement[held])
    return [
        (ts, Rule1D(nodes=np.array(nodes), weights=np.array(weights)))
        for ts, (nodes, weights) in ((fine, LAGUERRE_32), (coarse, LAGUERRE_24))
    ]


def integrate_6d_tensor(f: Integrand6D) -> tuple[complex, float]:
    """Tensor-product quadrature of the transformed integrand, and its error.

    ``tensor_refusal`` is checked first, before any rule is built: a
    non-integer or negative k raises InadmissibleError with its message.
    The two levels (``_tensor_levels``) share one ``tanh_sinh`` build: the
    fine level 5 and the coarse level 4 read off it.  Each level's
    tanh-sinh rule is taken on x and y and as every log axis's head, and its
    Gauss-Laguerre rule for the log axes' tails is a constant
    (``_laguerre``), so the path calls no LAPACK; the value is the fine sum,
    the error |fine - coarse|.
    """
    refuse(tensor_refusal(f.ps))
    sums = []
    for ts, lag in _tensor_levels():
        sums.append(_tensor_sum(f, (ts, ts) + tuple(log_axis_rule(b, ts, lag) for b in f.betas)))
    fine, coarse = sums
    return fine, abs(fine - coarse)


def _tensor_sum(f: Integrand6D, rules: tuple[Rule1D, ...]) -> complex:
    """The tensor-product quadrature sum on ``rules``, one per axis (x, y,
    p, q, t, z): tanh-sinh rules on x and y, ``log_axis_rule`` rules on the
    log axes.  Everything but log a (``f.log_a``) is float64.  The sum is
    evaluated exactly as written; the only reorganization is an exact
    binomial regrouping of S^k inside the finite sum, a polynomial in
    c0 = log a + ln x - ln y summed by Horner's rule, which leaves the
    result identical to brute-force enumeration up to rounding.

    The nx x ny grid of c0 is made and summed 32 columns at a time in two
    reused (nx, 32) buffers, c0's block and its polynomial, so no whole
    grid is held: ax @ block fills the block's entries of the row vector
    ax @ acc, which is then dotted with ay.  Each entry has the bits one
    BLAS thread gives it in the whole-grid product, on one BLAS thread and
    on two; the whole-grid product split between two threads moves the
    last bits at complex log a.
    """
    refuse(tensor_refusal(f.ps))
    kk = f.k_int
    rx, ry, rp, rq, rt, rz = rules

    ax = rx.weights * f.x_factor(rx.nodes, rx.complement)
    ay = ry.weights * f.y_factor(ry.nodes, ry.complement)

    signs = (-0.5, -0.5, 0.5, 0.5)
    # Normalized log-moments per log axis: m_hat[r] = sum w (sign*ln L)^r / r!;
    # their polynomial convolution gives the joint moments over r! of the
    # axis sum T, so the log-axis sum of S^k = (c0 + T)^k is
    # sum_r k!/(k-r)! joint[r] c0^(k-r).
    joint = [1.0]
    for rule, sign in zip((rp, rq, rt, rz), signs):
        term = rule.weights
        mhat = [np.sum(term)]
        for r in range(1, kk + 1):
            term = term * (sign * rule.log_nodes) / r
            mhat.append(np.sum(term))
        joint = np.convolve(joint, mhat)[: kk + 1]

    # Horner in c0, in place: numpy's float power calls pow() per element,
    # several times slower than products for the small k used here.
    width = 32
    lx = f.log_a + np.log(rx.nodes)[:, None]
    ly = np.log(ry.nodes)
    c0 = np.empty((len(lx), width), lx.dtype)
    acc = np.empty_like(c0)
    row = np.empty(len(ly), lx.dtype)
    for j in range(0, len(ly), width):
        cols = ly[j : j + width]
        c, a = c0[:, : len(cols)], acc[:, : len(cols)]
        np.subtract(lx, cols, out=c)
        a.fill(joint[0])
        for r in range(1, kk + 1):
            a *= c
            a += math.perm(kk, r) * joint[r]
        np.matmul(ax, a, out=row[j : j + width])
    total = complex(row @ ay)
    if not cmath.isfinite(total):
        raise NonFiniteSampleError("tensor quadrature produced a non-finite value")
    return total


def _qmc_share(
    rs: range, f: Integrand6D, spec: QmcSpec, base: np.ndarray, direction: np.ndarray, shifts: list[int]
) -> list:
    """Outcomes of the replicates ``rs`` of :func:`integrate_6d_qmc`, in
    order: each one's mean, until one raises; its exception then ends the
    list.  Replicate r takes ``spec.count`` points digitally shifted by
    words 6r..6r+5 of ``shifts``, in chunks of the axis-major uint32 Sobol
    ``base``, shape (6, chunk).  One uint32 word row, eight float64 rows and
    one flag row, sized by ``base``, are allocated here and reused by every
    chunk of every replicate.  A chunk streams one Sobol axis at a time
    through them: its words become ln u in place in one row.  The log axes
    p, q, t, z run first, their log weights added in that order, and only
    ln L_p and ln L_q are held until the half-sum ((ln L_t + ln L_z) -
    ln L_p - ln L_q) / 2; ln x and ln y join S's real part ``s_re`` as soon
    as they are made, and the Legendre kernels write into the log axes'
    scratch rows, idle by then.  Everything is real: ``f.coupling`` writes
    the Re and, where log a is complex, the Im of each sample into two rows
    free by then, each summed by its own ``np.sum`` as soon as the chunk is
    made.  The chunk sums are merged as numpy's pairwise sum merges its
    halves: after chunk i, counting from 1, the last two partial sums are
    added, left + right, once per factor 2 in i.  For a power-of-two count
    the one sum left has the bits of one ``np.sum`` over the replicate's
    samples, which are never held, and the mean is that sum over
    ``spec.count``."""
    chunk = base.shape[1]
    px = 1.0 / f.m
    py = 1.0 / (1.0 - f.m)
    word = np.empty(chunk, dtype=np.uint32)
    flags = np.empty(chunk, dtype=bool)
    log_w, ln_lp, ln_lq, half, row, t, ln_head, w_head = np.empty((8, chunk))
    # Free once the half-sum is made: S's real part, the kernel product,
    # and Re and, where log a is complex, Im of the samples.
    s_re, prod, re, im = ln_lp, ln_lq, row, t if isinstance(f.log_a, complex) else None
    vals = (re,) if im is None else (re, im)

    def ln_u(axis: int, mask: np.ndarray, dest: np.ndarray) -> np.ndarray:
        """ln u on one axis of the chunk: its words XOR ``mask`` at their midpoints."""
        np.bitwise_xor(base[axis], mask[axis], out=word)
        np.add(word, 0.5, out=dest)
        dest *= 2.0**-_SOBOL_BITS
        return np.log(dest, out=dest)

    out: list = []
    for r in rs:
        shift = np.array(
            [s >> (64 - _SOBOL_BITS) for s in shifts[r * 6 : r * 6 + 6]], dtype=np.uint32
        )
        sums: list[complex] = []  # the partial sums not yet merged, in point order
        try:
            for i, c0 in enumerate(range(0, spec.count, chunk), 1):
                mask = shift ^ _sobol_offset(direction, c0)
                # Log of the four log-axis weights L^beta e^(-L) dL/dT over
                # the sampling density e^(-T): the head weight plus T, and
                # T^beta on the tail, where L = T.  The head substitution
                # gets ln T <= 0 only, since T^c overflows on the tail.  No
                # select is needed: ln L = c min(ln T, 0) + max(ln T, 0), and
                # the weight is (head weight + T) [T <= 1] + beta max(ln T, 0),
                # the picked values up to the sign of a zero, which no sum
                # sees.
                log_w.fill(0.0)
                for axis, ln_l, beta in zip(range(2, 6), (ln_lp, ln_lq, half, row), f.betas):
                    np.negative(ln_u(axis, mask, ln_l), out=t)
                    np.less_equal(t, 1.0, out=flags)
                    np.log(t, out=ln_l)
                    _log_axis_head(np.minimum(ln_l, 0.0, out=ln_head), beta, out=(ln_head, w_head))
                    w_head += t
                    w_head *= flags
                    np.maximum(ln_l, 0.0, out=ln_l)
                    w_head += np.multiply(ln_l, beta, out=t)
                    log_w += w_head
                    ln_l += ln_head
                # S's log-axis part ((ln L_t + ln L_z) - ln L_p - ln L_q) / 2
                half += row
                half -= ln_lp
                half -= ln_lq
                half *= 0.5
                # x^(m-1) dx and y^-m dy with their warp Jacobians are the
                # constants px and py; ``row`` holds ln x, then ln y.
                ln_u(0, mask, row)
                row *= px
                np.add(row, f.log_a.real, out=s_re)
                f.x_kernel(np.exp(row, out=row), out=(prod, row, t, ln_head))
                prod *= px * py
                ln_u(1, mask, row)
                row *= py
                s_re -= row
                prod *= f.y_kernel(np.exp(row, out=row), out=(w_head, row, t, ln_head))
                s_re += half
                f.coupling(s_re, log_w, prod, re, im)
                if not all(np.isfinite(v, out=flags).all() for v in vals):
                    bad = int(np.argmin(np.isfinite(vals).all(axis=0))) + c0
                    raise NonFiniteSampleError(f"non-finite QMC sample at point {bad}")
                sums.append(complex(*(np.sum(v) for v in vals)))
                while i % 2 == 0:  # one merge per factor 2 in i: numpy's pairwise order
                    sums[-2:] = [sums[-2] + sums[-1]]
                    i //= 2
        except Exception as exc:  # the caller raises it, in replicate order
            out.append(exc)
            break
        out.append(sums[0] / spec.count)
    return out


def _qmc_means(spec: QmcSpec, args: tuple) -> list[complex]:
    """Means of replicates 0..R-1 of ``_qmc_share(rs, *args)``, R =
    ``spec.replicates``, in index order.  Replicate r is item r // w of the
    share of worker r % w, where w is the number of available CPUs
    (``os.sched_getaffinity``), at most R.  It is 1, an in-process run, on
    one CPU (``taskset -c 0``), when ``spec.count`` fits one chunk (a fork
    costs more than such a run), where there is no ``os.fork``, and in a
    daemonic process, which may not have children (read from ``sys.modules``:
    the package never imports ``multiprocessing``).  Worker 0 is the caller,
    each other a child of ``os.fork`` after ``args`` are built, which inherits
    them with no pickling, pickles its share into a pipe and leaves through
    ``os._exit``, so no exception returns into the caller's frames.  Each
    replicate runs the same code on the same inputs wherever it runs, so the
    means are bit for bit those of one process.  So is an error: the first
    exception in index order is raised here; a worker stops at its first
    failure, so the replicates it leaves out all come after it.  A child
    that exits without sending raises RuntimeError with its exit code
    (negative for a signal).  No child outlives the call: the caller SIGKILLs
    and reaps those it has not reaped.  Children run only elementwise numpy
    code, no BLAS, so the BLAS threads a fork does not copy are not missed;
    Python >= 3.12 still warns (DeprecationWarning) about forking a process
    that has threads.  Trace spans recorded in a child stay there."""
    n = spec.replicates
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(affinity(0)) if affinity else os.cpu_count() or 1, n)
    mp = sys.modules.get("multiprocessing")
    if spec.count <= _QMC_CHUNK or not hasattr(os, "fork") or (mp and mp.current_process().daemon):
        workers = 1
    pids, pipes = [], []  # children not yet reaped; the read ends of their pipes
    try:
        for w in range(1, workers):
            recv, send = os.pipe()
            pipes.append(open(recv, "rb"))
            try:
                pid = os.fork()
                if pid == 0:  # the child: send its share, then leave whatever happens
                    code = 1
                    try:
                        with open(send, "wb") as pipe:
                            pickle.dump(_qmc_share(range(w, n, workers), *args), pipe)
                        code = 0
                    except BaseException:
                        sys.excepthook(*sys.exc_info())  # its traceback, as an uncaught error prints it
                    finally:
                        os._exit(code)
            finally:
                os.close(send)  # the caller's copy, so its read end sees EOF once the child is gone
            pids.append(pid)
        shares = [_qmc_share(range(0, n, workers), *args)]
        for w, pipe in enumerate(pipes, 1):
            payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(0), 0)[1])
            if not payload:
                raise RuntimeError(
                    f"QMC worker for replicates {w}::{workers} exited with code {code} without sending them"
                )
            shares.append(pickle.loads(payload))
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL, whose number POSIX fixes
            os.waitpid(pid, 0)
    means = []
    for r in range(n):
        mean = shares[r % workers][r // workers]
        if isinstance(mean, Exception):
            raise mean
        means.append(mean)
    return means


def integrate_6d_qmc(f: Integrand6D, spec: QmcSpec) -> tuple[complex, float]:
    """Digitally-shifted Sobol estimate of the transformed integral.

    Unit-cube mapping: the x and y samples are power-warped (x = u^(1/m),
    y = u^(1/(1-m))) so the endpoint powers x^(m-1), y^-m are absorbed by
    the sampling density; the four log-axis variables use T = -log(u),
    with L = T on the tail T > 1 and the head substitution
    L = T^(1/(1+beta)) (``_log_axis_head``) for T <= 1, which absorbs the
    L^beta singularity.  Without the warps the estimator has unbounded
    variance and its replicate scatter understates the error; with them the
    weight is bounded up to logarithms.  Strip parameters are real
    (``Integrand6D`` refuses others and drops imaginary parts below 1e-12):
    the kernels, weights and the coupling S^k run in float64, S^k last
    (``Integrand6D.coupling``), with no complex array anywhere.
    ``qmc_refusal`` is checked first: unless k is a non-negative integer, a
    on the positive real axis raises InadmissibleError.  The value is the
    mean of ``spec.replicates`` digitally shifted replicates, the standard
    error their scatter; bit-for-bit reproducible for a fixed spec.

    The points run through the pipeline in chunks of 2^14 (``_sobol_offset``),
    so memory does not grow with ``spec.count``, and the chunk size moves no
    bit: every per-point step is elementwise, each chunk is summed by
    ``np.sum`` as it is made, and the chunk sums are merged in numpy's
    pairwise order, so a replicate's mean has the bits of one ``np.sum``
    over its samples, divided by ``spec.count``, whatever the chunk size
    and worker count.  That includes the Legendre kernels' Gauss series, a
    Horner sum about (1-x)/2 = 1/4 (``legendre.hyp2f1_array``) whose
    coefficients and term count ``f`` takes once, before any chunk.  The
    Sobol base is axis-major uint32, one row of 2^14 words per axis.  Each
    process allocates one uint32 word row and eight float64 rows once,
    sized by the base, and streams every chunk of its replicates through
    them one Sobol axis at a time; the kernels write into those rows too
    (:func:`_qmc_share`).  With the base that is 1.5 MiB, within a 2 MiB
    L2 cache.

    The replicates run on up to one process per available CPU, the others
    made by ``os.fork`` and read back through pipes, and give the bits of
    one process (:func:`_qmc_means`).
    """
    refuse(qmc_refusal(f.ps))
    if min(f.betas) <= -1.0:
        raise DomainError("integrate_6d_qmc needs Re(beta) > -1 on every log axis")
    base = sobol_points(min(_QMC_CHUNK, spec.count))
    shifts = _splitmix64_stream(spec.shift_seed, spec.replicates * _SOBOL_DIM)
    rep_means = _qmc_means(spec, (f, spec, base, _direction_numbers(), shifts))
    mean = sum(rep_means) / len(rep_means)
    var = sum(abs(m - mean) ** 2 for m in rep_means) / (len(rep_means) - 1)
    stderr = math.sqrt(var / len(rep_means))
    return mean, stderr
