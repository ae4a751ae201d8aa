"""Identity catalog and the multi-path verifier.

Paths through the identity family:

* ``jet``     - k! times coefficient k of the collapsed product jet
                a^w pi^2 2^(mu+u-1) csc(pi(m+w))  (integer k >= 0).
* ``moment``  - the same coefficient read off the uncollapsed product of
                the two Mellin factors and four Gamma moments: each moment
                and the Mellin denominator it cancels, matched by value,
                are skipped, and the rest, Gamma(m + w) Gamma(1 - m - w),
                summed as one log-gamma jet and exponentiated once;
                numerically independent of the csc collapse.
* ``tensor``  - direct six-dimensional tensor quadrature.
* ``qmc``     - digitally-shifted Sobol estimate of the same integral.
* ``closed``  - the Lerch-transcendent right-hand side.
* ``special`` - the per-case elementary closed form (zeta split, digamma,
                arctanh difference, log 2, Apery, ...).
* ``limit``   - Richardson extrapolation in k of the case's family: to
                the removable points k -> -1, and to apery's k = -3,
                where the eta-line family is regular.

Each path is one ``Path`` record in ``PATHS``, so adding a path is one
entry there.  Both halves of a record take the call's one ``PathCall``:
``admit`` is a pure refusal predicate, the reason the path does not run
or None, and ``run`` returns only numbers, (value, err), with err None
where the path has no estimate.  ``verify`` asks ``admit`` before any path
runs, reports a refused path as "inadmissible" with the reason as its
detail, never silently dropped, and alone builds, times and classifies
each ``PathResult``.  Each public path function raises its own
predicate's reason as ``InadmissibleError`` (``core.refuse``), so a
library caller is refused as ``verify`` is.

``judge`` gives the decision as one ``Decision`` record: the verdict and a
``PairRow`` per pair of "ok" paths, holding its abs and rel diffs, its bound
abs_tol + rel_tol max(|a|, |b|) + 3 (err_a + err_b) and its margin
abs / bound.  No other code forms a pair bound.  The report stores the
record; its ``verdict`` and ``diffs`` are views of it.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import (
    PARAM_NAMES,
    DomainError,
    NonFiniteSampleError,
    ParameterSet,
    PoleError,
    SixfoldError,
    Tolerances,
    check_parameters,
    derive_exponents,
    principal_power,
    refuse,
    validate_parameters,
)
from .jets import MAX_ORDER, closed_form_jet, jet_constant, jet_of_log_gamma, jet_variable
from .lerch import lerch_minus_one_split, lerch_phi
from .mellin import mellin_gamma_factors
from .quad import Integrand6D, QmcSpec, integrate_6d_qmc, integrate_6d_tensor, qmc_refusal, tensor_refusal
from .specialfn import digamma, riemann_zeta

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)
# Eight unit roundoffs: the moment path pairs two Gamma factors as
# cancelling where their arguments, formed by different formulas, differ by
# at most this times 1 + |m| + |u| + |v| + |mu| + |nu|.  Over 800,000 random
# pairs the two formulas differed by at most 1.4 roundoffs of that scale.
_CANCEL_TOL = 8.0 * 2.0**-53


def jet_refusal(ps: ParameterSet) -> str | None:
    """Why the jet and moment paths do not run at ``ps``, or None."""
    kk = ps.k_int
    return None if kk is not None and 0 <= kk <= MAX_ORDER else f"jet paths need integer k in [0, {MAX_ORDER}]"


def lhs_jet(ps: ParameterSet) -> complex:
    """k! * coefficient k of the collapsed closed-form jet."""
    refuse(jet_refusal(ps))
    kk = ps.k_int
    jet = closed_form_jet(ps, kk)
    return math.factorial(kk) * jet[kk]


def lhs_moment_expansion(ps: ParameterSet) -> complex:
    """k! * coefficient k of the uncollapsed factor-product jet.

    Mathematically identical to lhs_jet; exercises the Mellin Gamma factors
    and the log-gamma jets instead of the csc collapse.  The log of the
    product, ln pi + (u+mu-1) ln 2 + w log a plus sign * log Gamma over both
    Mellin tables (at m + w and 1 - m - w) and the four Gamma(beta+1 +- w/2),
    is summed as one jet and exponentiated once.

    Each Gamma moment cancels a Mellin denominator: those at beta_t+1 and
    beta_z+1 the x table's, those at beta_p+1 and beta_q+1 the y table's.  A
    moment and a Mellin factor of equal rate and opposite sign whose
    arguments differ by at most ``_CANCEL_TOL`` (1 + |m| + |u| + |v| + |mu|
    + |nu|) are not evaluated; every other factor is, in table order.
    Pairing is by value, so a defect in either table leaves its factor
    unpaired, and it shows.  What is left, Gamma(m + w) Gamma(1 - m - w),
    stays accurate as some Re(beta)+1 -> 0, where the cancelled jets grow
    like 1/(beta+1)^j.
    """
    refuse(jet_refusal(ps))
    kk = ps.k_int
    exq = derive_exponents(ps)
    log_jet = jet_constant(_LNPI + (ps.u + ps.mu - 1.0) * _LN2, kk)
    log_jet = log_jet + jet_variable(0.0, kk).scale(ps.log_a)
    factors = [
        *mellin_gamma_factors(ps.m, ps.u, ps.v),
        *((z, -rate, sign) for z, rate, sign in mellin_gamma_factors(1.0 - ps.m, ps.mu, ps.nu)),
    ]
    moments = (
        (exq.beta_t + 1.0, 0.5, 1),
        (exq.beta_z + 1.0, 0.5, 1),
        (exq.beta_p + 1.0, -0.5, 1),
        (exq.beta_q + 1.0, -0.5, 1),
    )
    tol = _CANCEL_TOL * (1.0 + abs(ps.m) + abs(ps.u) + abs(ps.v) + abs(ps.mu) + abs(ps.nu))
    for z, rate, sign in moments:
        pair = next(
            (i for i, (zf, rf, sf) in enumerate(factors) if rf == rate and sf == -sign and abs(zf - z) <= tol), None
        )
        if pair is None:
            factors.append((z, rate, sign))
        else:
            del factors[pair]
    for z, rate, sign in factors:
        log_jet = log_jet + jet_of_log_gamma(z, kk).stretch(rate).scale(sign)
    return math.factorial(kk) * log_jet.exp()[kk]


def lerch_third_argument(ps: ParameterSet) -> complex:
    """(pi - i log a)/(2 pi), principal log (``ps.log_a``); real part in
    (0, 1]."""
    return (math.pi - 1j * ps.log_a) / (2.0 * math.pi)


def rhs_theorem(ps: ParameterSet) -> complex:
    """i^(k-1) pi^(k+2) e^(i pi m) 2^(k+mu+u) Phi(e^(2 i pi m), -k, V).

    All powers principal; V = (pi - i log a)/(2 pi).
    """
    k = ps.k
    pref = cmath.exp(
        (k - 1.0) * 0.5j * math.pi
        + (k + 2.0) * _LNPI
        + 1j * math.pi * ps.m
        + (k + ps.mu + ps.u) * _LN2
    )
    z = cmath.exp(2j * math.pi * ps.m)
    return pref * lerch_phi(z, -k, lerch_third_argument(ps))


def _catanh(z: complex) -> complex:
    return 0.5 * (cmath.log(1.0 + z) - cmath.log(1.0 - z))


# ----------------------------------------------------------------------
# Identity catalog: the cases' elementary forms, then the entries
# ----------------------------------------------------------------------


def _lerch_coefficient(ps: ParameterSet, phase: complex) -> complex:
    """e^phase pi^(k+2) 2^(k+mu+u), exponents summed in that order: the
    Lerch-type special forms' coefficient.  ``rhs_theorem`` keeps its own,
    so a defect in either shows as ``closed`` against ``special``."""
    return cmath.exp(phase + (ps.k + 2.0) * _LNPI + (ps.k + ps.mu + ps.u) * _LN2)


def _hurwitz_split_form(ps: ParameterSet, n: complex | None) -> complex:
    vv = lerch_third_argument(ps)
    return _lerch_coefficient(ps, ps.k * 0.5j * math.pi) * lerch_minus_one_split(-ps.k, vv)


def _harmonic_form(ps: ParameterSet, n: complex | None) -> complex:
    vv = lerch_third_argument(ps)
    return -1j * math.pi * principal_power(2.0, ps.mu + ps.u - 2.0) * (digamma((vv + 1.0) / 2.0) - digamma(vv / 2.0))


def _difference_form(ps: ParameterSet, n: complex | None) -> complex:
    if n is None:
        raise DomainError("difference case needs the second exponent n")
    return (
        math.pi
        * principal_power(2.0, ps.mu + ps.u)
        * (_catanh(cmath.exp(1j * math.pi * ps.m)) - _catanh(cmath.exp(1j * math.pi * n)))
    )


def _alt_lerch_form(ps: ParameterSet, n: complex | None) -> complex:
    pref = -1j * _lerch_coefficient(ps, 0.5j * math.pi * (ps.k + ps.m))
    return pref * lerch_phi(cmath.exp(1j * math.pi * ps.m), -ps.k, ps.a)


def _eta_line_form(ps: ParameterSet, n: complex | None) -> complex:
    """-(2^(k+1)-1) e^(i pi k/2) pi^(k+2) zeta(-k) 2^(k+mu+u)."""
    k = ps.k
    if abs(k + 1.0) < 1e-12:
        raise PoleError("zeta line undefined at k = -1; use the limit path")
    factor = principal_power(2.0, k + 1.0) - 1.0
    return -factor * _lerch_coefficient(ps, 0.5j * math.pi * k) * riemann_zeta(-k)


@dataclass(frozen=True)
class IdentityCase:
    """One catalog entry: parameter pins, admissible paths and data.

    ``special``: the elementary form, (ps, n) -> complex; None for theorem.
    ``limit``: the family case's tag; the limit path extrapolates that
    case's elementary form in k to the pinned k.  ``alt_form``: stated in
    the shifted form, mapped onto the general identity by
    ``theorem_parameters``.
    """

    tag: str
    label: str
    constraints: str
    pins: dict[str, complex] = field(default_factory=dict)
    needs_second_exponent: bool = False
    second_exponent: complex | None = None
    paths: tuple[str, ...] = ()
    special: Callable[[ParameterSet, complex | None], complex] | None = None
    limit: str | None = None
    alt_form: bool = False


CATALOG: tuple[IdentityCase, ...] = (
    IdentityCase(
        tag="theorem",
        label="general identity: six-fold integral vs Lerch closed form",
        constraints="strip inequalities on (m,u,v,mu,nu); any complex k, a != 0",
        paths=("jet", "moment", "tensor", "qmc", "closed"),
    ),
    IdentityCase(
        tag="degenerate",
        label="k = 0 case: product identity, value pi^2 2^(mu+u-1) csc(pi m)",
        constraints="k = 0",
        pins={"k": 0.0},
        paths=("jet", "moment", "tensor", "qmc", "closed", "special"),
        special=lambda ps, n: math.pi**2 * principal_power(2.0, ps.mu + ps.u - 1.0) / cmath.sin(math.pi * ps.m),
    ),
    IdentityCase(
        tag="hurwitz_zeta_form",
        label="m = 1/2 line: two-term Hurwitz zeta split",
        constraints="m = 1/2",
        pins={"m": 0.5},
        paths=("jet", "moment", "tensor", "qmc", "closed", "special"),
        special=_hurwitz_split_form,
    ),
    IdentityCase(
        tag="harmonic_limit",
        label="k -> -1 limit at a = -2: generalized harmonic numbers",
        constraints="k = -1, m = 1/2, a = -2",
        pins={"k": -1.0, "m": 0.5, "a": -2.0},
        paths=("qmc", "closed", "special", "limit"),
        special=_harmonic_form,
        limit="hurwitz_zeta_form",
    ),
    IdentityCase(
        tag="difference_arctanh",
        label="k = -1, a = 1 difference pair: arctanh(e^(i pi m)) - arctanh(e^(i pi n))",
        constraints="k = -1, a = 1; second exponent n",
        pins={"k": -1.0, "a": 1.0},
        needs_second_exponent=True,
        paths=("closed", "special"),
        special=_difference_form,
    ),
    IdentityCase(
        tag="log3",
        label="difference pair at (m, n) = (1/2, 1/3): -pi log(3) 2^(mu+u-2)",
        constraints="k = -1, a = 1, m = 1/2, n = 1/3",
        pins={"k": -1.0, "a": 1.0, "m": 0.5},
        needs_second_exponent=True,
        second_exponent=1.0 / 3.0,
        paths=("closed", "special"),
        special=lambda ps, n: -math.pi * math.log(3.0) * principal_power(2.0, ps.mu + ps.u - 2.0),
    ),
    IdentityCase(
        tag="arccoth_sqrt2",
        label="difference pair at (m, n) = (1/2, 1/4): -pi arccoth(sqrt 2) 2^(mu+u-1)",
        constraints="k = -1, a = 1, m = 1/2, n = 1/4",
        pins={"k": -1.0, "a": 1.0, "m": 0.5},
        needs_second_exponent=True,
        second_exponent=0.25,
        paths=("closed", "special"),
        special=lambda ps, n: -math.pi * math.log(1.0 + math.sqrt(2.0)) * principal_power(2.0, ps.mu + ps.u - 1.0),
    ),
    IdentityCase(
        tag="alt_lerch",
        label="shifted form: -i pi^(k+2) e^(i pi(k+m)/2) 2^(k+mu+u) Phi(e^(i pi m), -k, a)",
        constraints="maps to the general identity via m -> m/2, a -> e^(i pi (2a-1)); needs Re(a) in (0, 1]",
        paths=("jet", "moment", "tensor", "qmc", "closed", "special"),
        special=_alt_lerch_form,
        alt_form=True,
    ),
    IdentityCase(
        tag="eta_zeta_line",
        label="alt form at m = a = 1: -(2^(k+1)-1) e^(i pi k/2) pi^(k+2) zeta(-k) 2^(k+mu+u)",
        constraints="m = 1, a = 1 in the alt form; k != -1",
        pins={"m": 1.0, "a": 1.0},
        paths=("jet", "moment", "tensor", "qmc", "closed", "special"),
        special=_eta_line_form,
        alt_form=True,
    ),
    IdentityCase(
        tag="log2_limit",
        label="k -> -1 limit of the zeta line: -i pi log(2) 2^(mu+u-1)",
        constraints="k = -1; m = 1, a = 1 in the alt form",
        pins={"k": -1.0, "m": 1.0, "a": 1.0},
        paths=("qmc", "closed", "special", "limit"),
        special=lambda ps, n: -1j * math.pi * _LN2 * principal_power(2.0, ps.mu + ps.u - 1.0),
        limit="eta_zeta_line",
        alt_form=True,
    ),
    IdentityCase(
        tag="apery",
        label="zeta line at k = -3: 3 i zeta(3) 2^(mu+u-5) / pi",
        constraints="k = -3; m = 1, a = 1 in the alt form",
        pins={"k": -3.0, "m": 1.0, "a": 1.0},
        paths=("qmc", "closed", "special", "limit"),
        special=lambda ps, n: 3j * riemann_zeta(3.0).real * principal_power(2.0, ps.mu + ps.u - 5.0) / math.pi,
        limit="eta_zeta_line",
        alt_form=True,
    ),
)

_CATALOG_BY_TAG = {c.tag: c for c in CATALOG}


def catalog_case(case: IdentityCase | str) -> IdentityCase:
    """The entry tagged ``case``; an ``IdentityCase`` is returned unchanged."""
    if isinstance(case, IdentityCase):
        return case
    if case not in _CATALOG_BY_TAG:
        raise DomainError(f"unknown case tag {case!r}; use one of {sorted(_CATALOG_BY_TAG)}")
    return _CATALOG_BY_TAG[case]


def theorem_parameters(case: IdentityCase, ps: ParameterSet) -> ParameterSet:
    """Map case parameters onto the general-identity parameter set."""
    if case.alt_form:
        a_mapped = cmath.exp(1j * math.pi * (2.0 * ps.a - 1.0))
        return ps.replace(m=ps.m / 2.0, a=a_mapped)
    return ps


def special_refusal(case: IdentityCase) -> str | None:
    """Why the special path does not run for ``case``, or None."""
    return "the general case has no separate elementary form" if case.special is None else None


def rhs_example(case: IdentityCase | str, ps: ParameterSet, second: complex | None = None) -> complex:
    """Per-case elementary closed form."""
    case = catalog_case(case)
    refuse(special_refusal(case))
    return case.special(ps, second)


# ----------------------------------------------------------------------
# Richardson limits in k
# ----------------------------------------------------------------------

_RICHARDSON_EPS = (0.08, 0.04, 0.02, 0.01)


def limit_refusal(case: IdentityCase) -> str | None:
    """Why the limit path does not run for ``case``, or None."""
    if case.limit is None:
        return "no limit family for this case"
    return None if "k" in case.pins else "the limit path needs a pinned k"


def rhs_limit_full(case: IdentityCase | str, ps: ParameterSet) -> tuple[complex, float]:
    """Richardson-extrapolated limit of the case's k-family at its pinned k0.

    The family is sampled at k0 +/- eps for each eps of the fixed
    ``_RICHARDSON_EPS``; the symmetric pairs kill the odd orders, and
    Neville extrapolation in eps^2 does the rest.  Returns (value,
    error_estimate), the estimate being the change made by the last
    extrapolation level.
    """
    case = catalog_case(case)
    refuse(limit_refusal(case))
    k0, family = case.pins["k"], catalog_case(case.limit).special
    eps = _RICHARDSON_EPS
    sym = [
        (family(ps.replace(k=k0 + e), None) + family(ps.replace(k=k0 - e), None)) / 2.0
        for e in eps
    ]
    # Neville in eps^2.
    table = list(sym)
    est_err = math.inf
    for level in range(1, len(eps)):
        new = []
        for i in range(len(eps) - level):
            x0, x1 = eps[i] ** 2, eps[i + level] ** 2
            new.append((x0 * table[i + 1] - x1 * table[i]) / (x0 - x1))
        err = abs(new[0] - table[0])
        if err > 10.0 * est_err and level > 1:
            raise DomainError("Richardson extrapolation diverged")
        est_err = err
        table = new
    return table[0], est_err


# ----------------------------------------------------------------------
# Verification reports
# ----------------------------------------------------------------------


@dataclass
class PathResult:
    status: str  # "ok" | "error" | "inadmissible"
    value: complex | None = None
    err: float | None = None
    detail: str = ""
    seconds: float = 0.0


@dataclass(frozen=True)
class PathCall:
    """What every path of one ``verify`` call reads: the case, its
    parameters with the pins applied (``ps``) and mapped onto the general
    identity (``thm``), the second exponent and the qmc path's sampling."""

    case: IdentityCase
    ps: ParameterSet
    thm: ParameterSet
    second: complex | None
    qmc_spec: QmcSpec

    @functools.cached_property
    def integrand(self) -> Integrand6D:
        """The call's one ``Integrand6D`` of ``thm``, built on first use."""
        return Integrand6D(self.thm)


class Path(NamedTuple):
    """One path: ``admit(call)``, the reason it does not run or None, and
    ``run(call) -> (value, err or None)``."""

    admit: Callable[[PathCall], str | None]
    run: Callable[[PathCall], tuple[complex, float | None]]


def _closed_path(call: PathCall) -> tuple[complex, None]:
    value = rhs_theorem(call.thm)
    if call.case.needs_second_exponent:
        value = rhs_theorem(call.thm.replace(m=call.second)) - value
    return value, None


# Every path, in report order.  The entries look their callees up in this
# module's namespace when they run, so a patched or traced callee is seen.
PATHS: dict[str, Path] = {
    "jet": Path(lambda call: jet_refusal(call.thm), lambda call: (lhs_jet(call.thm), None)),
    "moment": Path(lambda call: jet_refusal(call.thm), lambda call: (lhs_moment_expansion(call.thm), None)),
    "tensor": Path(lambda call: tensor_refusal(call.thm), lambda call: integrate_6d_tensor(call.integrand)),
    "qmc": Path(lambda call: qmc_refusal(call.thm), lambda call: integrate_6d_qmc(call.integrand, call.qmc_spec)),
    "closed": Path(lambda call: None, _closed_path),
    "special": Path(
        lambda call: special_refusal(call.case), lambda call: (rhs_example(call.case, call.ps, call.second), None)
    ),
    "limit": Path(lambda call: limit_refusal(call.case), lambda call: rhs_limit_full(call.case, call.ps)),
}
PATH_NAMES = tuple(PATHS)


class PairRow(NamedTuple):
    """One pair of "ok" values a, b: ``name`` "a|b", ``abs`` = |a - b|,
    ``rel`` = abs / max(|a|, |b|) (0 where both are 0), ``bound`` =
    abs_tol + rel_tol max(|a|, |b|) + 3 (err_a + err_b) and ``margin`` =
    abs / bound, the pair passing iff its margin is at most 1."""

    name: str
    abs: float
    rel: float
    bound: float
    margin: float


class Decision(NamedTuple):
    """What ``judge`` decides: the verdict and one ``PairRow`` per pair of
    "ok" paths, in report order."""

    verdict: str
    pairs: tuple[PairRow, ...]


def _margin(d: float, bound: float) -> float:
    """A pair's margin abs / bound, by the rules in ``judge``'s docstring."""
    if not (math.isfinite(d) and math.isfinite(bound)):
        return math.inf
    return 0.0 if d == 0.0 else d / bound if bound else math.inf


@dataclass
class VerificationReport:
    case: str
    params: ParameterSet
    second_exponent: complex | None
    tolerances: Tolerances
    paths: dict[str, PathResult]
    decision: Decision
    violations: list[str]
    warnings: list[str]

    @property
    def verdict(self) -> str:
        """``decision``'s verdict, or "invalid_parameters" where any
        parameter check failed (no path then runs)."""
        return "invalid_parameters" if self.violations else self.decision.verdict

    @property
    def diffs(self) -> dict[str, dict[str, float]]:
        """Each pair row's abs and rel diffs, by name, in report order."""
        return {row.name: {"abs": row.abs, "rel": row.rel} for row in self.decision.pairs}

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def judge(results: dict[str, PathResult], tol: Tolerances) -> Decision:
    """The ``Decision`` on one run's path results: one ``PairRow`` per pair of
    "ok" values a, b, in report order, and the verdict "pass" iff every
    row's margin is at most 1, or, below two "ok" values, iff no path erred.

    A row's margin is inf where abs or the bound is not finite, else 0 where
    abs is 0, else inf where the bound is 0, else abs / bound.  So a row
    passes iff abs <= bound < inf, and a NaN or infinite value or err never
    passes."""
    ok = [(name, r) for name, r in results.items() if r.status == "ok"]
    rows = []
    for (na, ra), (nb, rb) in itertools.combinations(ok, 2):
        d = abs(ra.value - rb.value)
        scale = max(abs(ra.value), abs(rb.value))
        bound = tol.abs_tol + tol.rel_tol * scale + 3.0 * ((ra.err or 0.0) + (rb.err or 0.0))
        rows.append(PairRow(f"{na}|{nb}", d, d / scale if scale else 0.0, bound, _margin(d, bound)))
    agree = all(row.margin <= 1.0 for row in rows) if rows else all(r.status != "error" for r in results.values())
    return Decision("pass" if agree else "fail", tuple(rows))


def verify(
    case: IdentityCase | str,
    ps: ParameterSet,
    tol: Tolerances = Tolerances(),
    paths: tuple[str, ...] | None = None,
    second: complex | None = None,
    qmc_spec: QmcSpec | None = None,
) -> VerificationReport:
    """Run every requested path for one case and compare pairwise.

    ``paths`` defaults to every path the case admits (a path named twice runs
    once, in first-seen order); an empty ``paths`` or a name not in ``PATHS``
    raises DomainError.  ``tol`` and ``qmc_spec`` (the qmc path's sampling)
    default to ``Tolerances()`` and ``QmcSpec()``, which hold the defaults.

    ``judge`` gives the report's ``decision``, which its ``verdict`` and
    ``diffs`` read; ``verdict`` reads "invalid_parameters" instead where a
    parameter check failed.  Parameter-strip violations, and for an alt-form
    case an a outside 0 < Re(a) <= 1, its domain, short-circuit to
    "invalid_parameters".  So does a caller's second exponent n at which the
    strip fails with m replaced by n, each violation named with the suffix
    " at m=n": the difference is of two integrals, and both must converge.  A
    pinned n (log3, arccoth_sqrt2) is not checked.  A case that needs n raises
    DomainError without one, and one that takes no n raises DomainError when
    given one.  Every path reads one ``PathCall``, whose ``Integrand6D`` the
    tensor and qmc paths share.  A path whose ``admit`` gives a reason does
    not run: it gets status "inadmissible", the reason as its detail and 0.0
    seconds.  An admitted path that raises a ``SixfoldError`` or an
    ``ArithmeticError``, or returns a value or err that is not finite (detail
    ``NonFiniteSampleError: ...``), gets status "error"; any other exception
    is a bug and propagates.
    """
    case = catalog_case(case)
    ps_eff = ps.replace(**case.pins) if case.pins else ps
    # Pinned parameters win over the caller's, the second exponent included.
    if case.second_exponent is not None:
        second = case.second_exponent
    if case.needs_second_exponent and second is None:
        raise DomainError("difference case needs the second exponent n")
    if not case.needs_second_exponent and second is not None:
        raise DomainError(f"case {case.tag!r} takes no second exponent n")
    requested = tuple(dict.fromkeys(paths)) if paths is not None else case.paths
    if not requested:
        raise DomainError(f"no path requested; valid: {PATH_NAMES}")
    for p in requested:
        if p not in PATHS:
            raise DomainError(f"unknown path {p!r}; valid: {PATH_NAMES}")

    qmc_spec = qmc_spec or QmcSpec()
    ps_thm = theorem_parameters(case, ps_eff)
    violations, warnings = check_parameters(ps_thm)
    if case.alt_form and not 0 < ps_eff.a.real <= 1:
        violations.append("0<Re(a)<=1")
    if not violations and second is not None and case.second_exponent is None:
        violations += [f"{name} at m=n" for name in validate_parameters(ps_thm.replace(m=second))]

    call = PathCall(case, ps_eff, ps_thm, second, qmc_spec)
    results: dict[str, PathResult] = {}
    for path in requested:
        if violations:  # no path runs on invalid parameters
            results[path] = PathResult("error", detail="parameters invalid")
            continue
        reason = PATHS[path].admit(call)
        if reason is not None:
            results[path] = PathResult("inadmissible", detail=reason)
            continue
        t0 = time.perf_counter()
        try:
            value, err = PATHS[path].run(call)
            if not (cmath.isfinite(value) and math.isfinite(err or 0.0)):
                raise NonFiniteSampleError(f"path returned value {value!r}, err {err!r}")
            result = PathResult("ok", value, err)
        except (SixfoldError, ArithmeticError) as exc:
            result = PathResult(status="error", detail=f"{type(exc).__name__}: {exc}")
        result.seconds = time.perf_counter() - t0
        results[path] = result

    return VerificationReport(
        case=case.tag,
        params=ps_eff,
        second_exponent=second,
        tolerances=tol,
        paths=results,
        decision=judge(results, tol),
        violations=violations,
        warnings=warnings,
    )


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------


def _cpair(zz: complex) -> list[float]:
    return [zz.real, zz.imag]


def report_to_dict(report: VerificationReport, include_times: bool = False) -> dict:
    params = {name: _cpair(getattr(report.params, name)) for name in PARAM_NAMES}
    if report.second_exponent is not None:
        params["n"] = _cpair(report.second_exponent)
    paths = {}
    for name, res in report.paths.items():
        entry: dict = {"status": res.status}
        if res.value is not None:
            entry["value"] = _cpair(res.value)
        if res.err is not None:
            entry["err"] = res.err
        if res.detail:
            entry["detail"] = res.detail
        paths[name] = entry
    out = {
        "case": report.case,
        "params": params,
        "paths": paths,
        "diffs": report.diffs,
        "verdict": report.verdict,
        "violations": report.violations,
        "warnings": report.warnings,
        "tolerances": {"abs": report.tolerances.abs_tol, "rel": report.tolerances.rel_tol},
    }
    if include_times:
        out["times"] = {name: res.seconds for name, res in report.paths.items()}
    return out


def report_to_csv_rows(report: VerificationReport) -> list[dict]:
    rows = []
    for name, res in report.paths.items():
        rows.append(
            {
                "case": report.case,
                "path": name,
                "status": res.status,
                "value_re": "" if res.value is None else repr(res.value.real),
                "value_im": "" if res.value is None else repr(res.value.imag),
                "err": "" if res.err is None else repr(res.err),
                "verdict": report.verdict,
                "detail": res.detail,
            }
        )
    return rows
