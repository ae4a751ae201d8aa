"""Shared numeric types: the seven-parameter model and its convergence strip.

Every quantity in this package is a plain Python ``complex`` in double
precision.  The strip conditions attached to the identity family live here,
together with the four log-power exponents derived from a parameter set.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple


class SixfoldError(Exception):
    """Base class for numeric errors raised by this package."""


class PoleError(SixfoldError):
    """Evaluation requested at (or too close to) a pole."""


class DomainError(SixfoldError):
    """Arguments outside the supported domain of an operation."""


class ConvergenceError(SixfoldError):
    """An iterative scheme failed to reach its target accuracy."""


class UnsupportedRegimeError(SixfoldError):
    """Arguments fall in a regime the evaluator deliberately rejects."""


class InadmissibleError(UnsupportedRegimeError):
    """A path's precondition does not hold; ``verify`` reports the path as
    "inadmissible" with the message as its detail."""


def refuse(reason: str | None) -> None:
    """Raise InadmissibleError(reason) unless reason is None: the guard of
    every public path function, given its refusal predicate's answer."""
    if reason is not None:
        raise InadmissibleError(reason)


class NonFiniteSampleError(SixfoldError):
    """An integrand sample produced NaN/Inf; coordinates are in the message."""


# Strict-inequality margin for the boundary-proximity warnings only.
_BOUNDARY_WARN = 1e-8

PARAM_NAMES = ("k", "a", "m", "u", "v", "mu", "nu")


@dataclass(frozen=True)
class ParameterSet:
    """The seven complex parameters (k, a, m, u, v, mu, nu) of the identity.

    The integral converges on a parameter strip; see
    :func:`validate_parameters` for the exact inequalities.
    ``ps.replace(m=0.3)`` is a copy with the given fields changed.
    """

    k: complex = 0.0
    a: complex = 1.0
    m: complex = 0.5
    u: complex = 0.0
    v: complex = 1.0
    mu: complex = 0.0
    nu: complex = 1.0

    def __post_init__(self) -> None:
        for name in PARAM_NAMES:
            object.__setattr__(self, name, complex(getattr(self, name)))

    def replace(self, **changes: complex) -> "ParameterSet":
        """A copy with the given fields changed, each stored as a complex
        number; an unknown field name raises TypeError.  Built directly, at a
        fraction of the cost of ``dataclasses.replace``."""
        copy = object.__new__(type(self))
        fields = copy.__dict__
        fields.update(self.__dict__)
        for name, value in changes.items():
            if name not in fields:
                raise TypeError(f"ParameterSet.replace() got an unexpected keyword argument {name!r}")
            fields[name] = complex(value)
        return copy


class ExponentQuad(NamedTuple):
    """The four log-power exponents derived from a ParameterSet, in axis
    order (p, q, t, z)."""

    beta_p: complex
    beta_q: complex
    beta_t: complex
    beta_z: complex


def derive_exponents(ps: ParameterSet) -> ExponentQuad:
    """Exponents of the four log-power kernel factors.

    beta_p = (-mu - m - nu)/2      beta_q = (-mu - m + nu + 1)/2
    beta_t = (m - u + v)/2         beta_z = (m - u - v - 1)/2
    """
    return ExponentQuad(
        beta_p=(-ps.mu - ps.m - ps.nu) / 2,
        beta_q=(-ps.mu - ps.m + ps.nu + 1) / 2,
        beta_t=(ps.m - ps.u + ps.v) / 2,
        beta_z=(ps.m - ps.u - ps.v - 1) / 2,
    )


def _strip_margins(ps: ParameterSet) -> dict[str, float]:
    """Every strip inequality, in reporting order, mapped to a margin that is
    positive exactly when the inequality holds."""
    m = ps.m.real
    exq = derive_exponents(ps)
    return {
        "Re(u)<1": 1 - ps.u.real,
        "0<Re(m)<1": min(m, 1 - m),
        "Re(v)>0": ps.v.real,
        "Re(m)<|Re(v)|": abs(ps.v.real) - m,
        "Re(mu)<1": 1 - ps.mu.real,
        "Re(nu)>0": ps.nu.real,
        "Re(m)<|Re(nu)|": abs(ps.nu.real) - m,
        "Re(beta_p)>-1": exq.beta_p.real + 1,
        "Re(beta_q)>-1": exq.beta_q.real + 1,
        "Re(beta_t)>-1": exq.beta_t.real + 1,
        "Re(beta_z)>-1": exq.beta_z.real + 1,
    }


def validate_parameters(ps: ParameterSet) -> list[str]:
    """Check every strip inequality; return the names of violated ones.

    Never raises: non-finite inputs are reported as violations.  Inequalities
    are strict with no epsilon margin; callers operating within 1e-8 of a
    boundary can consult :func:`parameter_warnings`.
    """
    violations = [
        f"finite({name})" for name in PARAM_NAMES if not cmath.isfinite(getattr(ps, name))
    ]
    if violations:
        return violations
    if ps.a == 0:
        violations.append("a != 0")
    violations += [name for name, margin in _strip_margins(ps).items() if not margin > 0]
    return violations


def parameter_warnings(ps: ParameterSet) -> list[str]:
    """Non-fatal advisories: the stricter half-strip conditions, boundary
    proximity (within 1e-8) of any strip inequality, exponents near the
    Gamma pole that degrade the moment path, and, last, m within 0.01 of
    the csc pole at an integer."""
    warnings: list[str] = []
    if not ps.u.real < ps.m.real < 0.5:
        warnings.append("strict-strip Re(u)<Re(m)<1/2 not satisfied")
    if not ps.m.real < ps.v.real:
        warnings.append("strict-strip Re(m)<Re(v) not satisfied")

    margins = _strip_margins(ps)
    for name, margin in margins.items():
        if 0 < margin < _BOUNDARY_WARN:
            warnings.append(f"within 1e-8 of boundary: {name}")

    # Gamma-family factors are differentiated at beta+1; near the pole at 0
    # their derivatives scale like j!/margin^j, so high-order coefficient
    # paths lose roughly j*log10(1/margin) digits.
    for name, margin in margins.items():
        if name.startswith("Re(beta") and 0 < margin < 1e-2:
            warnings.append(
                f"{name.removesuffix('>-1')}+1 = {margin:.2e}: expect degraded accuracy on the "
                "factor-product (moment) path at higher k"
            )

    if 0 < margins["0<Re(m)<1"] < 0.01:
        warnings.append("m within 0.01 of the csc pole at an integer")
    return warnings


@dataclass(frozen=True)
class Tolerances:
    """Finite, non-negative absolute/relative tolerance pair; at least one
    must be positive.

    ``verify`` and the CLI use these defaults for every field the caller
    does not set.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-8

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and math.isfinite(self.rel_tol)):
            raise DomainError("tolerances must be finite")
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise DomainError("tolerances must be non-negative")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise DomainError("abs_tol and rel_tol cannot both be zero")


def nearest_int(z: complex, tol: float) -> int | None:
    """The integer n with |Re z - n| <= tol and |Im z| <= tol, else None.

    The one integer test of the package; each caller passes its own tol.
    A non-finite z raises DomainError.
    """
    if not cmath.isfinite(z):
        raise DomainError(f"expected a finite number, got {z!r}")
    if abs(z.imag) > tol:
        return None
    n = round(z.real)
    return n if abs(z.real - n) <= tol else None


def principal_power(base: complex, expo: complex) -> complex:
    """base**expo with the principal branch of log(base); 0**0 = 1."""
    if base == 0:
        if expo == 0:
            return 1.0 + 0j
        if expo.real > 0:
            return 0.0 + 0j
        raise DomainError("0 raised to a power with non-positive real part")
    return cmath.exp(expo * cmath.log(base))
