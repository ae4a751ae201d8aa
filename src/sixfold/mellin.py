"""One-dimensional building blocks of the separable reduction.

The Mellin transform of the Legendre kernel over (0, 1),

    M(s; u, v) = int_0^1 x^(s-1) (1-x^2)^(-u/2) P_v^u(x) dx,

has the closed Gamma-quotient form implemented here; it is pinned by the
u=v=0 and (u,v)=(0,1) elementary cases and by direct tanh-sinh quadrature.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .core import DomainError, PoleError, nearest_int
from .legendre import kernel_factor_array
from .quad import tanh_sinh
from .specialfn import log_gamma

_POLE_TOL = 1e-13


def _check_strip(s: complex, u: complex) -> None:
    # Integrability on (0, 1): x^(Re s - 1) at 0 (the Legendre factor is
    # bounded there) and (1-x)^(-Re u) at 1.  The Gamma-quotient arguments
    # (s-u+-v)/2 sit in the denominator, so non-positive values only zero
    # the transform; they need no guard.
    if not s.real > 0:
        raise DomainError(f"Mellin strip needs Re(s) > 0, got s={s!r}")
    if not u.real < 1:
        raise DomainError(f"Mellin strip needs Re(u) < 1, got u={u!r}")


def mellin_gamma_factors(s: complex, u: complex, v: complex) -> tuple[tuple[complex, float, int], ...]:
    """The Gamma factors of M(s; u, v) as (argument, d argument/ds, +-1):
    Gamma(s) over Gamma((s-u+v)/2 + 1) Gamma((s-u-v+1)/2)."""
    return ((s, 1.0, 1), ((s - u + v) / 2.0 + 1.0, 0.5, -1), ((s - u - v + 1.0) / 2.0, 0.5, -1))


def mellin_legendre_closed(s: complex, u: complex, v: complex) -> complex:
    """M(s; u, v) = sqrt(pi) 2^(u-s) times the ``mellin_gamma_factors``.

    Computed from log-gamma sums so moderate parameters cannot overflow.
    Gamma poles of the numerator raise; denominator poles give an exact
    zero.
    """
    s, u, v = complex(s), complex(u), complex(v)
    expo = 0.5 * math.log(math.pi) + (u - s) * math.log(2.0)
    for z, _, sign in mellin_gamma_factors(s, u, v):
        if (pole := nearest_int(z, _POLE_TOL)) is not None and pole <= 0:
            if sign > 0:
                raise PoleError(f"M(s;u,v) pole at s={s!r}")
            return 0.0 + 0.0j
        expo += sign * log_gamma(z)
    return cmath.exp(expo)


def mellin_legendre_quadrature(s: complex, u: complex, v: complex) -> complex:
    """tanh-sinh (level 10) evaluation of
    int_0^1 x^(s-1) (1-x^2)^(-u/2) P_v^u(x) dx."""
    s, u, v = complex(s), complex(u), complex(v)
    _check_strip(s, u)
    rule = tanh_sinh(10)
    x, omx = rule.nodes, rule.complement
    vals = np.exp((s - 1.0) * np.log(x)) * kernel_factor_array(v, u, x, omx)
    return complex(np.sum(rule.weights * vals))

