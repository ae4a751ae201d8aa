"""Truncated Taylor-series (jet) arithmetic in one complex variable.

A jet stores coefficients c_0..c_order of f(w0 + w) around w = 0, so
coefficient j equals f^(j)(w0)/j!.  Coefficient k of the closed-form
product jet, times k!, realizes the k-th derivative at the origin that the
identity family's integer-k cases reduce to.

Every jet has order at most ``MAX_ORDER`` = 10, which ``Jet`` enforces
and the jet paths read: it is the largest k they admit, and the log-gamma
jet's top coefficient needs polygamma of order MAX_ORDER - 1, whose error
grows with its order (README, Accuracy notes).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import DomainError, ParameterSet, PoleError, nearest_int
from .specialfn import log_gamma, polygamma

MAX_ORDER = 10


@dataclass(frozen=True)
class Jet:
    """Immutable truncated power series; index j holds f^(j)(0)/j!."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise DomainError("jet needs at least the constant coefficient")
        if len(self.coeffs) - 1 > MAX_ORDER:
            raise DomainError(f"jet order capped at {MAX_ORDER}")
        object.__setattr__(self, "coeffs", _finite(tuple(complex(c) for c in self.coeffs)))

    def __getitem__(self, j: int) -> complex:
        return self.coeffs[j]

    def __add__(self, other: "Jet") -> "Jet":
        _check_orders(self, other)
        return _jet(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Jet") -> "Jet":
        _check_orders(self, other)
        return _jet(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "Jet") -> "Jet":
        _check_orders(self, other)
        n = len(self.coeffs)
        out = [0.0 + 0.0j] * n
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n - i):
                out[i + j] += a * other.coeffs[j]
        return _jet(tuple(out))

    def scale(self, c: complex) -> "Jet":
        return _jet(tuple(c * a for a in self.coeffs))

    def stretch(self, sigma: complex) -> "Jet":
        """Jet of w -> f(sigma * w): coefficient j picks up sigma^j."""
        out = []
        p = 1.0 + 0.0j
        for a in self.coeffs:
            out.append(a * p)
            p *= sigma
        return _jet(tuple(out))

    def reciprocal(self) -> "Jet":
        if self.coeffs[0] == 0:
            raise PoleError("jet reciprocal requires a non-zero constant term")
        n = len(self.coeffs)
        out = [0.0 + 0.0j] * n
        out[0] = 1.0 / self.coeffs[0]
        for j in range(1, n):
            s = 0.0 + 0.0j
            for i in range(1, j + 1):
                s += self.coeffs[i] * out[j - i]
            out[j] = -s * out[0]
        return _jet(tuple(out))

    def exp(self) -> "Jet":
        n = len(self.coeffs)
        out = [0.0 + 0.0j] * n
        out[0] = cmath.exp(self.coeffs[0])
        for j in range(1, n):
            s = 0.0 + 0.0j
            for i in range(1, j + 1):
                s += i * self.coeffs[i] * out[j - i]
            out[j] = s / j
        return _jet(tuple(out))


def _finite(coeffs: tuple[complex, ...]) -> tuple[complex, ...]:
    """``coeffs``, or DomainError naming the first non-finite one."""
    if not all(map(cmath.isfinite, coeffs)):
        bad = next(c for c in coeffs if not cmath.isfinite(c))
        raise DomainError(f"non-finite jet coefficient {bad!r}")
    return coeffs


def _jet(coeffs: tuple[complex, ...]) -> Jet:
    """Jet arithmetic's constructor: its coefficients are already Python
    complex numbers and its order that of an operand, so only finiteness is
    checked."""
    jet = object.__new__(Jet)
    object.__setattr__(jet, "coeffs", _finite(coeffs))
    return jet


def _check_orders(a: Jet, b: Jet) -> None:
    if len(a.coeffs) != len(b.coeffs):
        raise DomainError("jet orders differ")


def jet_constant(c: complex, order: int) -> Jet:
    return Jet((complex(c),) + (0.0 + 0.0j,) * order)


def jet_variable(c0: complex, order: int) -> Jet:
    """Jet of w -> c0 + w."""
    if order < 1:
        return jet_constant(c0, order)
    return Jet((complex(c0), 1.0 + 0.0j) + (0.0 + 0.0j,) * (order - 1))


def jet_exp_linear(c: complex, order: int) -> Jet:
    """Jet of w -> exp(c*w): coefficients c^j / j!."""
    out = []
    p = 1.0 + 0.0j
    for j in range(order + 1):
        out.append(p)
        p *= c / (j + 1)
    return Jet(tuple(out))


def jet_of_gamma(z0: complex, order: int) -> Jet:
    """Taylor jet of Gamma(z0 + w) via exp of the log-gamma jet.

    The log-gamma jet has coefficient j = polygamma(j-1, z0)/j! for j >= 1.
    """
    return jet_of_log_gamma(z0, order).exp()


def jet_of_log_gamma(z0: complex, order: int) -> Jet:
    coeffs = [log_gamma(z0)]
    fact = 1.0
    for j in range(1, order + 1):
        fact *= j
        coeffs.append(polygamma(j - 1, z0) / fact)
    return Jet(tuple(coeffs))


def jet_sin(theta: Jet) -> Jet:
    """sin of a jet, via the two exponential jets."""
    i_theta = theta.scale(1j)
    return (i_theta.exp() - i_theta.scale(-1.0).exp()).scale(-0.5j)


def jet_csc(m: complex, order: int) -> Jet:
    """Jet of w -> csc(pi*(m + w)); poles at integer m."""
    m = complex(m)
    if nearest_int(m, 1e-13) is not None:
        raise PoleError(f"csc(pi m) pole at integer m={m!r}")
    theta = jet_variable(m, order).scale(math.pi)
    return jet_sin(theta).reciprocal()


def closed_form_jet(ps: ParameterSet, order: int) -> Jet:
    """Jet of F(w) = a^w * pi^2 * 2^(mu+u-1) * csc(pi*(m+w)).

    Coefficient k times k! is the integer-k value of the six-fold integral.
    a^w uses the principal branch of log a.
    """
    if ps.a == 0:
        raise DomainError("a must be non-zero")
    pref = math.pi**2 * cmath.exp((ps.mu + ps.u - 1.0) * math.log(2.0))
    a_jet = jet_exp_linear(cmath.log(ps.a), order)
    return (a_jet * jet_csc(ps.m, order)).scale(pref)
