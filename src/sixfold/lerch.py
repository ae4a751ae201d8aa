"""Lerch transcendent Phi(z, s, v) in every regime this package needs.

``lerch_phi`` routes each point to one method:

* |z| > 1: rejected.
* z = 1: the Hurwitz zeta function (Re(s) > 1).
* s an integer in [-10, 0]: exact elementary form via n-fold application
  of (v + z d/dz) to 1/(1-z), carried on exact coefficient arrays.
* z = 0: the single term v^(-s).
* z = -1: the two-term Hurwitz-zeta split (with the digamma limit at s=1).
* |z| = 1 with Re(s) > 1/2, |Im(s)| <= 3 and Re(v) >= 0.3: the Laplace form
  (1/Gamma(s)) int t^(s-1) e^(-vt)/(1-z e^-t) dt, on a ray turned by
  -arg(v)/2, summed on tanh-sinh level 6 and on level 5, its even nodes,
  in one pass; the difference of the two levels is the error estimate.
* every other z with |z| <= 1 (Re(v) > 0): a rotated-contour Abel-Plana
  representation, entire in s, evaluated by nested tanh-sinh levels from
  5 up to 8, stopping when two levels agree; the difference of the last
  two levels is the error estimate.  Level 6 is built once, at import,
  and shared read-only by both routes; a call builds one rule per level it
  refines to above 6, and reads each level's coarser neighbour from its
  own nodes (``quad.tanh_sinh_nesting``).  It tracks the quadrature
  error, which dominates as Re(v) -> 0, not rounding, which grows as
  z -> 1 (README, Accuracy notes, has the measured figures).  Below
  |z| = 0.05 it sums the tail z Phi(z, s, v + 1) after the first term
  v^(-s).

One cross-check oracle is kept: the defining power series, which shares
no code with the routes above.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import DomainError, PoleError, UnsupportedRegimeError, nearest_int, principal_power
from .quad import Rule1D, tanh_sinh, tanh_sinh_nesting
from .specialfn import digamma, hurwitz_zeta, rgamma

_MAX_SERIES_TERMS = 200_000
_INT_TOL = 1e-12
_UNIT_ROUNDOFF = 2.0**-53
# The tanh-sinh level the Abel-Plana evaluator refines up to.
_ABEL_PLANA_MAX_LEVEL = 8
# On the circle, Re(s) above the first bound, |Im(s)| up to the second and
# Re(v) at least the third take the Laplace form.  Its rounding grows like
# e^(pi |Im s| / 2), the factor by which |Gamma(s)| falls below the mass of
# its integrand (README, Accuracy notes, has the measured figures).
_LAPLACE_MIN_RE_S = 0.5
_LAPLACE_MAX_IM_S = 3.0
_LAPLACE_MIN_RE_V = 0.3


def _read_only(rule: Rule1D) -> Rule1D:
    """``rule`` with its arrays marked read-only, so that it can be shared."""
    for array in (rule.nodes, rule.weights, rule.complement):
        array.setflags(write=False)
    return rule


# Tanh-sinh level 6 and its nesting slices, built once: both unit-circle
# routes sum every node of it, and most Abel-Plana calls stop there.
_LEVEL_6 = _read_only(tanh_sinh(6))
_LEVEL_6_NESTING = tanh_sinh_nesting(_LEVEL_6)


def _laplace_route(s: complex, v: complex) -> bool:
    """Whether ``lerch_unit_circle_full`` takes the Laplace form at (s, v)."""
    return s.real > _LAPLACE_MIN_RE_S and abs(s.imag) <= _LAPLACE_MAX_IM_S and v.real >= _LAPLACE_MIN_RE_V


def lerch_series(z: complex, s: complex, v: complex) -> complex:
    """The defining power series, kept as an oracle for tests and A10.

    Well-conditioned for Re(s) >= 0, or for |z| <= 1/2 with Re(s) >= -3:
    with Re(s) < 0 its terms peak at about (|s|/(e ln(1/|z|)))^|Re s|
    before converging, and the sum loses that factor to cancellation.
    """
    z, s, v = complex(z), complex(s), complex(v)
    if (pole := nearest_int(v, _INT_TOL)) is not None and pole <= 0:
        raise PoleError(f"series pole: v={v!r} is a non-positive integer")
    total = principal_power(v, -s)
    zpow = 1.0 + 0.0j
    small = 0
    for n in range(1, _MAX_SERIES_TERMS):
        zpow *= z
        term = zpow * principal_power(v + n, -s)
        total += term
        if abs(term) <= 1e-16 * abs(total):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise DomainError("lerch series did not converge; use a circle-capable regime")


def lerch_apostol(z: complex, n: int, v: complex) -> complex:
    """Phi(z, -n, v) for integer n >= 0: exact operator form.

    Applying (v + z d/dz) n times to 1/(1-z) over the basis
    z^i/(1-z)^(i+1) gives integer-coefficient recurrences; the only
    rounding is in the final evaluation.
    """
    if n < 0 or n > 10:
        raise DomainError(f"apostol form implemented for 0 <= n <= 10, got {n}")
    z, v = complex(z), complex(v)
    if abs(z - 1.0) < 1e-12:
        raise PoleError("apostol form has a pole at z=1")
    coeff = [1.0 + 0.0j]
    for _ in range(n):
        new = [0.0 + 0.0j] * (len(coeff) + 1)
        for i, c in enumerate(coeff):
            new[i] += (v + i) * c
            new[i + 1] += (i + 1.0) * c
        coeff = new
    inv = 1.0 / (1.0 - z)
    total = 0.0 + 0.0j
    zpow = 1.0 + 0.0j
    base = inv
    for c in coeff:
        total += c * zpow * base
        zpow *= z
        base *= inv
    return total


def lerch_minus_one_split(s: complex, v: complex) -> complex:
    """Phi(-1, s, v) = 2^-s [zeta(s, v/2) - zeta(s, (v+1)/2)].

    At s = 1 the zeta poles cancel; the value is the digamma difference
    (psi((v+1)/2) - psi(v/2)) / 2.
    """
    s, v = complex(s), complex(v)
    if v.real <= 0:
        raise DomainError(f"minus-one split needs Re(v) > 0, got v={v!r}")
    if abs(s - 1.0) < 1e-12:
        return 0.5 * (digamma((v + 1.0) / 2.0) - digamma(v / 2.0))
    return principal_power(2.0, -s) * (
        hurwitz_zeta(s, v / 2.0) - hurwitz_zeta(s, (v + 1.0) / 2.0)
    )


# ----------------------------------------------------------------------
# Rotated-contour Abel-Plana evaluation in the closed unit disk
# ----------------------------------------------------------------------


def _log(x: np.ndarray | float, y: np.ndarray | float) -> np.ndarray:
    """Principal log(x + iy) from real parts, log(x^2 + y^2)/2 + i atan2(y, x),
    for x^2 + y^2 within the float64 range: several times cheaper than
    numpy's complex log, a per-element call of the C library's clog."""
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = np.log(np.add(np.square(x), np.square(y)))
    out.real *= 0.5
    out.imag = np.arctan2(y, x)
    return out


def _abel_plana_phi(z: complex, s: complex, v: complex) -> tuple[complex, float]:
    """Phi via Abel-Plana applied to f(x) = z^x (v+x)^(-s), with an estimate.

    Valid for 0 < |z| <= 1 with z not on [1, inf); requires Re(v) > 0.  The
    half-line integral of f is rotated to the steepest-descent ray, and the
    boundary integral pairs f(ix) with f(-ix) through a sinh form that is
    immune to cancellation.  Both integrands are smooth and exponentially
    decaying, so tanh-sinh converges fast; the representation is entire in
    s, which is what makes negative Re(s) on the circle tractable.

    The two integrals are summed on tanh-sinh level 5, then refined one
    level at a time on the nodes each level adds (levels nest, so
    S_L = S_(L-1)/2 + new terms), until two successive levels agree to
    8 u sum|terms| (u the float64 unit roundoff) or level 8 is reached.
    Returns the value and |S_L - S_(L-1)| as its error estimate.

    The integrands run in numpy arrays with no complex log: the three logs,
    log(v + u e^(i phi)) and log(v +- it), come from real parts
    (``_log``), several times cheaper than numpy's complex log.  Every node
    of the shared level-6 rule (``_LEVEL_6``) is evaluated in one pass,
    since most calls stop at level 6 (244 of the 268 in one benchmark
    sweep): level 5 is its even nodes at twice their weights.  Levels 7
    and 8 are built only when a call refines to them, and evaluate only
    the nodes they add.  Each form of the boundary integrand is computed
    only where it is used.
    """
    flip = cmath.phase(z) < 0.0
    if flip:  # Phi(conj z, conj s, conj v) = conj Phi(z, s, v)
        z, s, v = z.conjugate(), s.conjugate(), v.conjugate()
    theta = cmath.phase(z)
    rho = abs(z)
    lam = math.log(rho)
    if theta == 0.0 and lam >= 0.0:
        raise DomainError("Abel-Plana form needs z off the ray [1, inf)")
    lnz = complex(lam, theta)
    r_decay = abs(lnz)
    phi = math.pi - math.atan2(theta, lam)  # rotation angle in [0, pi/2]
    eiphi = cmath.exp(1j * phi)
    sneg = max(0.0, -s.real)

    big = 45.0 + 2.0 * abs(s.imag)

    def cutoff(rate):
        """Where e^(-rate x) (1 + x/|v|)^(-Re s) falls to about e^-big."""
        x = big / rate
        for _ in range(3):
            x = (big + sneg * math.log1p(x / abs(v))) / rate
        return x

    upper = cutoff(r_decay)
    tmax = cutoff(2.0 * math.pi - theta)

    def terms(nodes, weights):
        """Both integrals' weighted terms at the given nodes."""
        u = upper * nodes
        i0 = weights * np.exp(-r_decay * u - s * _log(v.real + u * eiphi.real, v.imag + u * eiphi.imag))
        t = tmax * nodes
        twopit = 2.0 * math.pi * t
        log_em1 = np.where(
            twopit > 30.0, twopit, np.log(np.expm1(np.minimum(twopit, 700.0)))
        )
        gp = t * (1j * lnz) - s * _log(v.real, v.imag + t)
        gm = t * (-1j * lnz) - s * _log(v.real, v.imag - t)
        delta = gp - gm
        # Each form only where it serves: the sinh form for |delta| < 1,
        # where the difference form would cancel.
        small = np.abs(delta) < 1.0
        big = ~small
        j_int = np.empty_like(delta)
        em1 = log_em1[small]
        j_int[small] = 2.0 * np.exp(0.5 * (gp[small] + gm[small]) - em1) * np.sinh(delta[small] / 2.0)
        em1 = log_em1[big]
        j_int[big] = np.exp(gp[big] - em1) - np.exp(gm[big] - em1)
        return i0, j_int * weights

    def sums(i0, j_int):
        """The rule sum of the two integrals and its absolute sum."""
        return (
            eiphi * upper * np.sum(i0) + 1j * tmax * np.sum(j_int),
            upper * np.sum(np.abs(i0)) + tmax * np.sum(np.abs(j_int)),
        )

    # Level 5 is the even nodes of level 6 at twice their weights.
    rule = _LEVEL_6
    coarse, added = _LEVEL_6_NESTING
    i0, j_int = terms(rule.nodes, rule.weights)
    total, mass = sums(2.0 * i0[coarse], 2.0 * j_int[coarse])
    new = sums(i0[added], j_int[added])
    for lev in range(6, _ABEL_PLANA_MAX_LEVEL + 1):
        if lev > 6:
            rule = tanh_sinh(lev)
            added = tanh_sinh_nesting(rule)[1]
            new = sums(*terms(rule.nodes[added], rule.weights[added]))
        prev, total = total, 0.5 * total + new[0]
        mass = 0.5 * mass + new[1]
        if abs(total - prev) <= 8.0 * _UNIT_ROUNDOFF * mass:
            break
    val = complex(0.5 * principal_power(v, -s) + total)
    return (val.conjugate() if flip else val), float(abs(total - prev))


def _laplace_phi(z: complex, s: complex, v: complex) -> tuple[complex, float]:
    """(1/Gamma(s)) int_0^inf t^(s-1) e^(-vt)/(1 - z e^-t) dt, with an estimate.

    Needs Re(v) > 0 and either |z| <= 1, z != 1, Re(s) > 0, or z = 1,
    Re(s) > 1.  The ray is turned half way to conj(v): t = c x with
    c = e^(-i arg(v)/2).  The poles of 1/(1 - z e^-t) lie on
    Re t = log|z| <= 0, so no turn below pi/2 crosses them.  On the real
    axis e^(-vt) oscillates at Im(v), and the cancellation cost up to
    1.8e-14 in rounding at Re(v) = 0.3, |Im v| = 1.  The full turn,
    c = conj(v)/|v|, ends the oscillation but brings the poles to
    cos(arg v) times their distance from the real axis.  The half turn
    keeps both factors at cos(arg(v)/2) > 0.7.  One tanh-sinh
    rule sums both panels: (0, 1], and [1, 1 + 46/Re(c v)], over which
    e^(-c v x) falls by e^-46.  Every node of the shared level-6 rule
    (``_LEVEL_6``) is evaluated in one pass, and level 5 is read from its
    even nodes; returns S_6 and |S_6 - S_5| as its error estimate.  That
    difference measures the error of level 5, and near z = 1 it overstates
    the error of S_6 by orders of magnitude: over 40 points, 4.3e-8
    against at most 1.0e-11 relative at |z - 1| = 1e-6, and 1.9e-11
    against 1.2e-13 at 1e-4 (README, Accuracy notes).
    """
    half = -0.5 * cmath.phase(v)
    turn = cmath.exp(1j * half)
    rate = v * turn
    span = 46.0 / rate.real
    rule = _LEVEL_6
    coarse, added = _LEVEL_6_NESTING
    x = np.stack([rule.nodes, 1.0 + span * rule.nodes])
    w = np.stack([rule.weights, span * rule.weights])
    terms = w * np.exp((s - 1.0) * np.log(x) - rate * x) / (1.0 - z * np.exp(-turn * x))
    # Each sum runs over one contiguous array, panel (0, 1] first: numpy sums
    # a strided view in blocks of its buffer size, which would set the rounding.
    prev = np.sum(2.0 * terms[:, coarse])  # level 5 has twice the weights
    total = 0.5 * prev + np.sum(terms[:, added].ravel())
    # c^s: c^(s-1) from t^(s-1), and dt = c dx.
    scale = rgamma(s) * cmath.exp(1j * half * s)
    return complex(scale * total), float(abs(scale * (total - prev)))


def lerch_unit_circle_full(z: complex, s: complex, v: complex) -> tuple[complex, float]:
    """Unit-circle Phi with an error estimate: for Re(s) > 1/2,
    |Im(s)| <= 3 and Re(v) >= 0.3 the Laplace form ``_laplace_phi`` on
    tanh-sinh levels 5 and 6, at about half the cost; elsewhere the
    adaptive Abel-Plana evaluator, refined up to tanh-sinh level 8.
    The Laplace form's estimate |S_6 - S_5| is level 5's error, which
    near z = 1 exceeds that of the value returned by orders of magnitude
    (see ``_laplace_phi``).

    Preconditions: |z| = 1 within 1e-12, |z - 1| >= 1e-6, Re(v) > 0.
    About 1e-14 relative for |z - 1| >= 0.01 unless Re(v) is small (below
    0.1 for Re(s) <= 0, 0.3 for Re(s) > 0): there (v +- it)^-s peaks a
    distance Re(v) from Abel-Plana's contour, the level cap binds, and the
    estimate grows with the error.  Rounding, which the estimate omits,
    grows towards z = 1 on both routes, to the same order (2e-12 at
    |z - 1| = 1e-4), so the Laplace form needs no floor on |z - 1| of its
    own (README, Accuracy notes).
    """
    z, s, v = complex(z), complex(s), complex(v)
    if abs(abs(z) - 1.0) > 1e-12:
        raise DomainError(f"lerch_unit_circle needs |z| = 1, got |z| = {abs(z)}")
    if abs(z - 1.0) < 1e-6:
        raise DomainError("z too close to 1 for the unit-circle evaluator")
    if v.real <= 0:
        raise DomainError(f"unit-circle evaluator needs Re(v) > 0, got v={v!r}")
    if _laplace_route(s, v):
        return _laplace_phi(z, s, v)
    return _abel_plana_phi(z, s, v)


def lerch_phi(z: complex, s: complex, v: complex) -> complex:
    """Phi(z, s, v) by the first route in the module docstring's list that
    applies; off z = 0, 1 and -1, every s other than an integer in [-10, 0]
    reaches the Abel-Plana evaluator, except on the circle at Re(s) > 1/2,
    |Im(s)| <= 3 and Re(v) >= 0.3."""
    z, s, v = complex(z), complex(s), complex(v)
    if (pole := nearest_int(v, _INT_TOL)) is not None and pole <= 0:
        raise PoleError(f"lerch_phi pole: v={v!r} is a non-positive integer")
    az = abs(z)
    if az > 1.0 + 1e-12:
        raise UnsupportedRegimeError(f"|z| > 1 not supported (|z| = {az})")

    if abs(z - 1.0) <= 1e-12:
        if s.real > 1.0:
            return hurwitz_zeta(s, v)
        raise DomainError("z = 1 requires Re(s) > 1")

    neg = nearest_int(s, _INT_TOL)
    if neg is not None and -10 <= neg <= 0:
        return lerch_apostol(z, -neg, v)
    if z == 0:
        return principal_power(v, -s)
    if abs(z + 1.0) <= 1e-12:
        return lerch_minus_one_split(s, v)
    if abs(az - 1.0) <= 1e-12:
        return lerch_unit_circle_full(z, s, v)[0]
    if v.real <= 0:
        raise DomainError(f"Abel-Plana evaluation needs Re(v) > 0, got v={v!r}")
    if az < 0.05:
        # Phi = v^-s + z Phi(z, s, v + 1) scales Abel-Plana's absolute error
        # by |z|: rounding on integrals that do not shrink with |z|, and the
        # boundary integral's |z|^(it), unresolved below |z| ~ 1e-50.
        return principal_power(v, -s) + z * _abel_plana_phi(z, s, v + 1.0)[0]
    return _abel_plana_phi(z, s, v)[0]
