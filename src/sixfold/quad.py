"""Quadrature rules and the direct six-dimensional integration paths.

One-dimensional rules: tanh-sinh on the open unit interval (double
exponential, handles endpoint singularities), Gauss-Laguerre on (0, inf)
with weight e^-x, and ``log_axis_rule`` for the log-power axes.

The six-dimensional integrand, after substituting L = log(1/.) on the four
log-power axes, factors as

    Gx(x) * Gy(y) * prod_i L_i^beta_i e^-L_i * S^k,
    S = log a + log x - log y + (log Lt + log Lz - log Lp - log Lq) / 2.

Both direct paths treat the weight L^beta e^-L on L <= 1 through one
substitution, L = T^(1/(1+beta)) (``_log_axis_head``): it folds L^beta and
the Jacobian into the constant 1/(1+beta), and carries ln L instead of L,
which underflows as Re beta -> -1.

Both direct paths admit only real strip parameters, whose real parts
``Integrand6D`` takes once: the Legendre kernels and log-axis weights run in
float64, and complex numbers enter only through log a and the coupling S^k.
``integrate_6d_tensor`` evaluates the full tensor-product quadrature sum of
that integrand; for integer k >= 0 the sum is reorganized exactly (binomial
regrouping of S^k inside the finite sum) so it runs in seconds instead of
hours.  ``integrate_6d_qmc`` is a digitally-shifted Sobol estimator with a
replicate-based standard error.
"""

from __future__ import annotations

import math
import cmath
import os
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .core import (
    DomainError,
    InadmissibleError,
    NonFiniteSampleError,
    ParameterSet,
    derive_exponents,
    nearest_int,
)
from .legendre import kernel_factor_array

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
    alpha: float | None = None
    complement: np.ndarray | None = None
    log_nodes: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.weights):
            raise DomainError("rule nodes/weights length mismatch")


def _tanh_sinh_points(level: int, first: int) -> Rule1D:
    """Tanh-sinh points at t = j h, h = 2^-level, and at -t, up to the
    cut-off: every j >= 0 for first = 0, the odd j (the points the level
    adds to level - 1) for first = 1.  Each t = j h is exact, so levels
    nest bit for bit, with level - 1 weights exactly twice those of level."""
    if not 1 <= level <= _MAX_LEVEL:
        raise DomainError(f"tanh_sinh level must be in [1, {_MAX_LEVEL}]")
    h = 2.0 ** (-level)
    t_max = math.asinh(2.0 * _TS_YMAX / math.pi)
    jmax = int(math.floor(t_max / h))
    t = h * np.arange(first, jmax + 1, 1 + first)
    y = 0.5 * math.pi * np.sinh(t)
    e2 = np.exp(-2.0 * y)
    hi = 1.0 / (1.0 + e2)          # node for +t
    lo = e2 / (1.0 + e2)           # node for -t, and complement for +t
    sech2 = 4.0 * e2 / (1.0 + e2) ** 2
    w = h * (0.25 * math.pi) * np.cosh(t) * sech2

    skip = 1 - first  # t = 0 appears once
    nodes = np.concatenate([lo[skip:][::-1], hi])
    comp = np.concatenate([hi[skip:][::-1], lo])
    weights = np.concatenate([w[skip:][::-1], w])
    return Rule1D(nodes=nodes, weights=weights, complement=comp)


def tanh_sinh(level: int) -> Rule1D:
    """Tanh-sinh rule on the open interval (0, 1); mesh h = 2^-level."""
    return _tanh_sinh_points(level, 0)


def tanh_sinh_refinement(level: int) -> Rule1D:
    """The points ``tanh_sinh(level)`` adds to ``tanh_sinh(level - 1)`` (odd
    multiples of h), with their level weights: for a rule sum S,
    S_level = S_(level-1) / 2 + sum over these points."""
    if level < 2:
        raise DomainError("tanh_sinh_refinement needs level >= 2")
    return _tanh_sinh_points(level, 1)


def gauss_laguerre(n: int) -> Rule1D:
    """Gauss-Laguerre rule: integrates f against e^-x on (0, inf).

    Golub-Welsch on the Jacobi matrix; the weights are the squared first
    eigenvector components, so the rule applied to f = 1 returns 1.
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


def log_axis_rule(alpha: float, n: int = 32, level: int = 5) -> Rule1D:
    """Composite rule for ∫_0^inf f(L) L^alpha e^-L dL with log-singular f.

    Plain Gauss-Laguerre is polynomially exact but converges like a low
    power of 1/n once f carries the ln^r L factors the coupling kernel
    produces (measured ~n^(-1/4) at alpha = -3/4).  This rule folds the
    weight explicitly: on (0, 1] a tanh-sinh panel in T, with
    L = T^(1/(1+alpha)) (``_log_axis_head``), soaks up the L^alpha ln^r L
    endpoint, and a shifted Gauss-Laguerre handles [1, inf) where
    everything is smooth.  Weights stay positive.  ``log_nodes`` holds
    ln L; as alpha -> -1 the head nodes L themselves underflow to 0, while
    ln L and the weights keep the full mass Gamma(alpha + 1).
    """
    if alpha <= -1.0:
        raise DomainError(f"log_axis_rule needs alpha > -1, got {alpha}")
    ts = tanh_sinh(level)
    lag = gauss_laguerre(n)
    head_ln, head_lw = _log_axis_head(np.log(ts.nodes), alpha)
    tail = 1.0 + lag.nodes
    log_nodes = np.concatenate([head_ln, np.log(tail)])
    weights = np.concatenate(
        [ts.weights * np.exp(head_lw), lag.weights * tail**alpha * math.exp(-1.0)]
    )
    return Rule1D(
        nodes=np.exp(log_nodes), weights=weights, alpha=float(alpha), log_nodes=log_nodes
    )


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
# QMC points per pass, whose temporaries then fit a 2 MB L2 cache, and per
# pairwise np.sum; both powers of two, the first no larger than the second.
_QMC_CHUNK = 1 << 14
_QMC_BLOCK = 1 << 17


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
    shape (count, 6), as uint64 integers in [0, 2^32); index 0 is the zero
    point."""
    v = _direction_numbers()
    if count < 1:
        raise DomainError("count must be positive")
    out = np.zeros((count, _SOBOL_DIM), dtype=np.uint64)
    idx = np.arange(1, count, dtype=np.uint64)
    low = (idx & (~idx + np.uint64(1))).astype(np.float64)
    ctz = np.frexp(low)[1] - 1  # exact for powers of two
    steps = v[ctz, :]
    out[1:] = np.bitwise_xor.accumulate(steps, axis=0)
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


def _int_power(s_vals: np.ndarray, n: int) -> np.ndarray:
    """s^n by repeated multiplication: numpy's float power calls pow() per
    element, which is several times slower for the small |n| used here."""
    out = np.ones_like(s_vals)
    for _ in range(abs(n)):
        out *= s_vals
    return 1.0 / out if n < 0 else out


@dataclass(frozen=True)
class Integrand6D:
    """Separable pieces of the transformed integrand on (0,1)^2 x (0,inf)^4.

    The one place that knows the integrand is real: both direct paths admit
    only a real strip (``has_real_strip``) and read the numbers taken here
    once, Re m, the real parts ``betas`` of the log-axis exponents (p, q, t,
    z), ``log_a`` (a float when its imaginary part is 0) and ``k_int``, k
    as an int when within 1e-12 of one.  Each direct path checks its
    preconditions itself and assembles its own sum from the pieces.
    """

    ps: ParameterSet
    m: float = field(init=False)
    betas: tuple[float, float, float, float] = field(init=False)
    log_a: float | complex = field(init=False)
    k_int: int | None = field(init=False)

    def __post_init__(self) -> None:
        ps = self.ps
        log_a = cmath.log(ps.a)
        object.__setattr__(self, "m", ps.m.real)
        object.__setattr__(self, "betas", tuple(b.real for b in derive_exponents(ps).as_tuple()))
        object.__setattr__(self, "log_a", log_a.real if log_a.imag == 0.0 else log_a)
        object.__setattr__(self, "k_int", nearest_int(ps.k, 1e-12))

    # -- separable pieces -------------------------------------------------

    def x_factor(self, x: np.ndarray, one_minus_x: np.ndarray | None = None) -> np.ndarray:
        return np.exp((self.m - 1.0) * np.log(x)) * self.x_kernel(x, one_minus_x)

    def y_factor(self, y: np.ndarray, one_minus_y: np.ndarray | None = None) -> np.ndarray:
        return np.exp(-self.m * np.log(y)) * self.y_kernel(y, one_minus_y)

    def x_kernel(self, x: np.ndarray, one_minus_x: np.ndarray | None = None) -> np.ndarray:
        """The real x kernel: the x factor without x^(m-1), which QMC warps away."""
        return kernel_factor_array(self.ps.v.real, self.ps.u.real, x, one_minus_x)

    def y_kernel(self, y: np.ndarray, one_minus_y: np.ndarray | None = None) -> np.ndarray:
        """The real y kernel: the y factor without y^-m, which QMC warps away."""
        return kernel_factor_array(self.ps.nu.real, self.ps.mu.real, y, one_minus_y)

    def has_real_strip(self) -> bool:
        """True when m, u, v, mu and nu are real to within 1e-12."""
        names = ("m", "u", "v", "mu", "nu")
        return all(abs(getattr(self.ps, name).imag) < 1e-12 for name in names)

    def integer_k(self) -> int | None:
        """k as an int when it is a non-negative integer, else None."""
        kk = self.k_int
        return kk if kk is not None and kk >= 0 else None

    def coupling(self, s_vals: np.ndarray) -> np.ndarray:
        """S^k with principal powers; plain integer powers for integer k of
        either sign."""
        kk = self.k_int
        if kk is None or kk < 0:
            if np.any(np.abs(s_vals) < 1e-300):
                raise NonFiniteSampleError("coupling log argument hit zero")
            if kk is None:
                return np.exp(self.ps.k * np.log(s_vals.astype(complex)))
        return _int_power(s_vals, kk)


def _tensor_k(f: Integrand6D, rules) -> int:
    """k, once the tensor path's preconditions and the rules are checked."""
    kk = f.integer_k()
    if kk is None:
        raise InadmissibleError("tensor path needs integer k >= 0")
    if not f.has_real_strip():
        raise InadmissibleError("tensor path needs real strip parameters")
    if len(rules) != 6:
        raise DomainError("integrate_6d_tensor needs one rule per axis (x, y, p, q, t, z)")
    for axis, rule in zip(("x", "y"), rules[:2]):
        if rule.complement is None:
            raise DomainError(f"axis {axis} must use a tanh_sinh rule")
    for name, rule, beta in zip(("p", "q", "t", "z"), rules[2:], f.betas):
        if rule.log_nodes is None:
            raise DomainError(f"axis {name} must use a log_axis_rule")
        if abs(rule.alpha - beta) > 1e-12:
            raise DomainError(f"axis {name}: rule alpha {rule.alpha} != Re(beta) {beta}")
    return kk


def integrate_6d_tensor(f: Integrand6D, rules) -> complex:
    """Full tensor-product quadrature of the transformed integrand.

    Requires integer k >= 0 and real strip parameters (else
    InadmissibleError), and one rule per axis as ``log_axis_rule`` and
    ``tanh_sinh`` build them (else DomainError).  Everything but log a
    (``f.log_a``) is float64.  The tensor sum is evaluated exactly as
    written; the only reorganization is an exact binomial regrouping of
    S^k inside the finite sum, a polynomial in c0 = log a + ln x - ln y
    summed by Horner's rule, which leaves the result identical to
    brute-force enumeration up to rounding.
    """
    kk = _tensor_k(f, rules)
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

    # Horner in c0: numpy's float power calls pow() per element (_int_power).
    c0 = f.log_a + np.log(rx.nodes)[:, None] - np.log(ry.nodes)[None, :]
    acc = np.full(c0.shape, joint[0])
    for r in range(1, kk + 1):
        acc = acc * c0 + math.perm(kk, r) * joint[r]
    total = complex(ax @ acc @ ay)
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
    ``base``, shape (6, chunk).  The buffers are allocated here, sized by
    ``base``, and reused by every chunk of every replicate: each chunk's
    Sobol words become ln u in place, one row per axis, and its products
    go into its slice of one block, summed when full."""
    chunk, block = base.shape[1], min(_QMC_BLOCK, spec.count)
    px = 1.0 / f.m
    py = 1.0 / (1.0 - f.m)
    words = np.empty_like(base)
    lnu = np.empty(base.shape)
    t, ln_head, w_head, log_w, prod = (np.empty(chunk) for _ in range(5))
    flags = np.empty(chunk, dtype=bool)
    # S in real arithmetic; a complex log a lends S its imaginary part, set here once.
    if isinstance(f.log_a, complex):
        s_vals = np.full(chunk, complex(0.0, f.log_a.imag))
        s_re = s_vals.real
    else:
        s_vals = s_re = np.empty(chunk)
    vals = np.empty(block, dtype=s_vals.dtype)
    out: list = []
    for r in rs:
        shift = np.array(
            [s >> (64 - _SOBOL_BITS) for s in shifts[r * 6 : r * 6 + 6]], dtype=np.uint32
        )
        sums: list[complex] = []
        try:
            for c0 in range(0, spec.count, chunk):
                np.bitwise_xor(base, (shift ^ _sobol_offset(direction, c0))[:, None], out=words)
                np.add(words, 0.5, out=lnu)
                lnu *= 2.0**-_SOBOL_BITS
                np.log(lnu, out=lnu)
                # x^(m-1) dx and y^-m dy with their warp Jacobians are the
                # constants px and py; rows 0 and 1 become ln x and ln y.
                lnu[0] *= px
                lnu[1] *= py
                np.multiply(f.x_kernel(np.exp(lnu[0], out=t)), px * py, out=prod)
                prod *= f.y_kernel(np.exp(lnu[1], out=t))
                # Log of the four log-axis weights L^beta e^(-L) dL/dT over
                # the sampling density e^(-T): the head weight plus T, and
                # T^beta on the tail, where L = T.  The head substitution
                # gets ln T <= 0 only, since T^c overflows on the tail.  No
                # select is needed: ln L = c min(ln T, 0) + max(ln T, 0), and
                # the weight is (head weight + T) [T <= 1] + beta max(ln T, 0),
                # the picked values up to the sign of a zero, which no sum
                # sees.  Rows 2-5 become ln L.
                log_w.fill(0.0)
                for ln_t, beta in zip(lnu[2:], f.betas):
                    np.negative(ln_t, out=t)
                    np.less_equal(t, 1.0, out=flags)
                    np.log(t, out=ln_t)
                    _log_axis_head(np.minimum(ln_t, 0.0, out=ln_head), beta, out=(ln_head, w_head))
                    w_head += t
                    w_head *= flags
                    np.maximum(ln_t, 0.0, out=ln_t)
                    w_head += np.multiply(ln_t, beta, out=t)
                    log_w += w_head
                    ln_t += ln_head
                np.add(lnu[4], lnu[5], out=t)
                t -= lnu[2]
                t -= lnu[3]
                t *= 0.5
                np.add(lnu[0], f.log_a.real, out=s_re)
                s_re -= lnu[1]
                s_re += t
                prod *= np.exp(log_w, out=log_w)
                dest = vals[c0 % block : c0 % block + chunk]
                np.multiply(prod, f.coupling(s_vals), out=dest)
                if not np.isfinite(dest, out=flags).all():
                    bad = int(np.argmin(flags)) + c0
                    raise NonFiniteSampleError(f"non-finite QMC sample at point {bad}")
                if (c0 + chunk) % block == 0:
                    sums.append(complex(np.sum(vals)))
        except Exception as exc:  # the caller raises it, in replicate order
            out.append(exc)
            break
        out.append(
            complex(math.fsum(s.real for s in sums), math.fsum(s.imag for s in sums)) / spec.count
        )
    return out


def _qmc_child(conn, rs: range, args: tuple) -> None:
    with conn:
        conn.send(_qmc_share(rs, *args))


def _qmc_workers(spec: QmcSpec) -> int:
    """Processes for the replicates: one per available CPU, at most one per
    replicate, or 1 (in-process) where a fork cannot pay or cannot run."""
    if spec.count <= _QMC_CHUNK:  # a one-chunk replicate is cheaper than a fork
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(affinity(0)) if affinity else os.cpu_count() or 1, spec.replicates)
    if workers < 2:
        return 1
    import multiprocessing  # only here: the import costs more than a small run

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if multiprocessing.current_process().daemon:  # may not have children
        return 1
    return workers


def _qmc_forked(workers: int, n: int, args: tuple) -> list:
    """Outcomes of replicates 0..n-1 of ``_qmc_share(rs, *args)``, in index
    order, replicate r computed by worker r % workers: worker 0 is the
    caller, each other a forked child that sends its share's outcomes
    through a pipe.  A worker stops at its first failure, so the replicates
    left out all come after an exception.  A child that exits without
    sending raises RuntimeError.  No child outlives the call."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    outcomes: dict[int, object] = {}
    children = []
    try:
        for w in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_qmc_child, args=(send, range(w, n, workers), args), daemon=True)
            child.start()
            children.append((child, recv))
            send.close()  # so recv sees EOF once the child is gone
        outcomes.update(zip(range(0, n, workers), _qmc_share(range(0, n, workers), *args)))
        for w, (child, recv) in enumerate(children, 1):
            try:
                outcomes.update(zip(range(w, n, workers), recv.recv()))
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"QMC worker for replicates {w}::{workers} exited with code "
                    f"{child.exitcode} without sending them"
                ) from None
    finally:
        for child, recv in children:
            recv.close()
            child.terminate()
            child.join()
    return [outcomes[r] for r in sorted(outcomes)]


def integrate_6d_qmc(f: Integrand6D, spec: QmcSpec) -> tuple[complex, float]:
    """Digitally-shifted Sobol estimate of the transformed integral.

    Unit-cube mapping: the x and y samples are power-warped (x = u^(1/m),
    y = u^(1/(1-m))) so the endpoint powers x^(m-1), y^-m are absorbed by
    the sampling density; the four log-axis variables use T = -log(u),
    with L = T on the tail T > 1 and the head substitution
    L = T^(1/(1+beta)) (``_log_axis_head``) for T <= 1, which absorbs the
    L^beta singularity.  Without the warps the estimator has unbounded
    variance and its replicate scatter understates the error; with them the
    weight is bounded up to logarithms.  Strip parameters must be real
    (``Integrand6D`` drops imaginary parts below 1e-12): the kernels and
    weights run in float64 and the coupling S^k is applied last.  Unless k is a
    non-negative integer, a must be off the positive real axis.  A breach
    of either rule raises InadmissibleError.  The value is the mean
    of ``spec.replicates`` digitally shifted replicates, the standard error
    their scatter; bit-for-bit reproducible for a fixed spec.

    The points run through the pipeline in chunks of 2^14 (``_sobol_offset``),
    so memory does not grow with ``spec.count``, and the chunk size moves no
    bit: every per-point step is elementwise (the Gauss series too, see
    :func:`hyp2f1_array`), each 2^17-point block is summed by one pairwise
    ``np.sum``, and the block sums of a replicate by ``math.fsum``.  The
    Sobol base is axis-major uint32, one row of 2^14 words per axis, and
    each process allocates the chunk buffers once, sized by the base, and
    reuses them for every chunk of its replicates (:func:`_qmc_share`).

    The replicates are independent, so they run on up to one process per
    available CPU (``os.sched_getaffinity``), at most ``spec.replicates``:
    with w workers the caller computes the replicates r = 0 (mod w) and each
    of w - 1 children, forked after the Sobol base, direction numbers and
    shifts are built, the replicates r = i (mod w); a forked child inherits
    them and the integrand with no pickling and no fresh interpreter.  Each
    replicate runs the same code on the same inputs wherever it runs, and
    the means are merged by index before the one reduction, so the value
    and standard error are bit-for-bit those of the one-process run; so is
    an error, the exception of the lowest-index replicate that raised.  The
    estimator stays in-process on one CPU (``taskset -c 0`` gives a
    one-process run), when ``spec.count`` fits one chunk (a fork costs more
    than such a run), where the ``fork`` start method does not exist, and
    in a daemonic process, which may not have children.  Children run only
    elementwise numpy code, no BLAS, so the BLAS threads a fork does not
    copy are not missed; Python >= 3.12 still warns (DeprecationWarning)
    about forking a process that has threads.  Trace spans recorded in a
    child stay there.
    """
    if not f.has_real_strip():
        raise InadmissibleError("qmc path needs real strip parameters")
    a = f.ps.a
    if f.integer_k() is None and abs(a.imag) < 1e-12 and a.real > 0:
        raise InadmissibleError(
            "k is not a non-negative integer and a is on the positive real "
            "axis: the coupling log vanishes inside the domain, where S^k "
            "has a pole or branch point without a principal-value meaning"
        )
    if min(f.betas) <= -1.0:
        raise DomainError("integrate_6d_qmc needs Re(beta) > -1 on every log axis")
    base = np.ascontiguousarray(sobol_points(min(_QMC_CHUNK, spec.count)).T, dtype=np.uint32)
    shifts = _splitmix64_stream(spec.shift_seed, spec.replicates * _SOBOL_DIM)
    args = (f, spec, base, _direction_numbers(), shifts)
    workers = _qmc_workers(spec)
    if workers == 1:
        outcomes = _qmc_share(range(spec.replicates), *args)
    else:
        outcomes = _qmc_forked(workers, spec.replicates, args)
    rep_means = []
    for outcome in outcomes:
        if isinstance(outcome, Exception):  # the lowest-index replicate that raised
            raise outcome
        rep_means.append(outcome)

    mean = sum(rep_means) / len(rep_means)
    var = sum(abs(m - mean) ** 2 for m in rep_means) / (len(rep_means) - 1)
    stderr = math.sqrt(var / len(rep_means))
    return mean, stderr
