import cmath
import math
import random

import pytest

from oracles import abel_sum_alternating, alternating_sum
from sixfold.core import DomainError, PoleError, UnsupportedRegimeError, principal_power
from sixfold.lerch import (
    _abel_plana_phi,
    lerch_apostol,
    lerch_integral_oracle,
    lerch_minus_one_split,
    lerch_phi,
    lerch_series,
    lerch_unit_circle_full,
)
from sixfold.specialfn import hurwitz_zeta

# Fixed by the 10^6-term brute summation oracle with tail averaging
# (tests/oracles.brute_lerch_unit); equals Catalan + i pi^2/48.
PHI_I_2_1 = 0.9159655941772364 + 0.2056167583560211j
ZETA3 = 1.2020569031595943


def test_phi_at_z_zero():
    s, v = 2.3 + 0.1j, 1.7
    assert abs(lerch_phi(0.0, s, v) - principal_power(v, -s)) < 1e-14


def test_phi_geometric_at_s_zero():
    z = 0.4 + 0.2j
    assert abs(lerch_phi(z, 0.0, 5.5) - 1.0 / (1.0 - z)) < 1e-14


def test_phi_half_log_series():
    # partial sums of sum (1/2)^n/(n+1) with a geometric remainder bound
    total = sum(0.5**n / (n + 1.0) for n in range(60))
    bound = 0.5**60 / 61.0 * 2.0
    got = lerch_phi(0.5, 1.0, 1.0).real
    assert abs(got - total) < bound + 1e-13
    assert abs(got - 2.0 * math.log(2.0)) < 1e-12


def test_apostol_zero_applications():
    z = 0.3 - 0.7j
    assert abs(lerch_apostol(z, 0, 0.9) - 1.0 / (1.0 - z)) < 1e-15


def test_apostol_known_values():
    assert abs(lerch_apostol(-1.0, 1, 0.5)) < 1e-15
    got = lerch_apostol(-1.0, 2, 0.25)
    assert abs(got - (-0.09375)) < 1e-15
    # Abel-summation oracle confirms both within its extrapolation error
    assert abs(abel_sum_alternating(lambda n: n + 0.5) - 0.0) < 1e-5
    assert abs(abel_sum_alternating(lambda n: (n + 0.25) ** 2) - (-0.09375)) < 1e-5


def test_apostol_pole_and_cap():
    with pytest.raises(PoleError):
        lerch_apostol(1.0, 2, 0.5)
    with pytest.raises(DomainError):
        lerch_apostol(0.5, 11, 0.5)


def test_unit_circle_eta3():
    got = lerch_unit_circle_full(-1.0, 3.0, 1.0)[0]
    partial = alternating_sum(lambda n: (n + 1.0) ** -3, 4000)
    assert abs(got - partial) < (4001.0) ** -3 + 1e-12
    assert abs(got - 0.75 * ZETA3) < 1e-12


def test_unit_circle_vs_hurwitz_split():
    s, v = 2.5, 0.8
    split = lerch_minus_one_split(s, v)
    circle = lerch_unit_circle_full(-1.0, s, v)[0]
    assert abs(split - circle) <= 1e-9 * abs(split)


def test_unit_circle_imaginary_point_frozen():
    val, err = lerch_unit_circle_full(1j, 2.0, 1.0)
    assert abs(val - PHI_I_2_1) < 1e-11
    assert err < 1e-10


def test_unit_circle_rejects_non_positive_v():
    with pytest.raises(DomainError, match="needs Re\\(v\\) > 0"):
        lerch_phi(cmath.exp(1j), 0.5, -0.3)


def test_unit_circle_rejects_near_one():
    with pytest.raises(DomainError):
        lerch_unit_circle_full(cmath.exp(1e-8j), 2.0, 1.0)
    with pytest.raises(DomainError):
        lerch_unit_circle_full(0.5, 2.0, 1.0)


def test_minus_one_split_values():
    assert abs(lerch_minus_one_split(0.0, 0.77) - 0.5) < 1e-13
    assert abs(lerch_minus_one_split(3.0, 1.0) - 0.75 * ZETA3) < 1e-12
    assert abs(lerch_minus_one_split(2.0, 1.0) - math.pi**2 / 12.0) < 1e-13


def test_minus_one_split_digamma_limit():
    # continuous through s = 1: compare against nearby values
    v = 1.3 - 0.2j
    at_limit = lerch_minus_one_split(1.0, v)
    nearby = lerch_minus_one_split(1.0 + 1e-6, v)
    assert abs(at_limit - nearby) < 1e-5


def test_integral_oracle_values():
    assert abs(lerch_integral_oracle(0.0, 2.0, 1.0) - 1.0) < 1e-10
    assert abs(lerch_integral_oracle(0.5, 1.0, 1.0) - 2.0 * math.log(2.0)) < 1e-10
    assert abs(lerch_integral_oracle(-1.0, 3.0, 1.0) - 0.75 * ZETA3) < 1e-10
    assert type(lerch_integral_oracle(0.5j, 1.5, 0.7)) is complex


@pytest.mark.parametrize(
    "z, s",
    [(cmath.exp(1j), 0.5), (0.5j, 1.5), (0.01 + 0.01j, 1.5), (-1.0, 1.5), (0.3 + 0.4j, -3.0)],
    ids=["circle", "disk", "disk_peel", "minus_one_split", "apostol"],
)
def test_phi_returns_python_complex_on_every_route(z, s):
    # Reports and their CSV rows print plain numbers only when no route
    # hands back a numpy scalar.
    assert type(lerch_phi(z, s, 0.7)) is complex
    if abs(abs(z) - 1.0) < 1e-12:
        val, est = lerch_unit_circle_full(z, s, 0.7)
        assert (type(val), type(est)) == (complex, float)


def test_integral_oracle_domain():
    with pytest.raises(DomainError):
        lerch_integral_oracle(0.5, -1.0, 1.0)
    with pytest.raises(DomainError):
        lerch_integral_oracle(1.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        lerch_integral_oracle(0.5, 1.0, -2.0)


def test_dispatcher_z_one_routes_to_hurwitz():
    got = lerch_phi(1.0, 2.5, 1.4)
    assert abs(got - hurwitz_zeta(2.5, 1.4)) < 1e-13
    with pytest.raises(DomainError):
        lerch_phi(1.0, 0.5, 1.4)


def test_dispatcher_rejects_outside_disk():
    with pytest.raises(UnsupportedRegimeError):
        lerch_phi(1.2, 2.0, 1.0)


def test_dispatcher_v_pole():
    with pytest.raises(PoleError):
        lerch_phi(0.5, 2.0, -3.0)


def test_dispatcher_disk_needs_positive_re_v():
    # Inside the disk only the Abel-Plana evaluator runs, and it needs
    # Re v > 0; the closed form's V and alt_lerch's a have Re in (0, 1].
    with pytest.raises(DomainError):
        lerch_phi(0.5, 2.0, -0.5)


def test_defining_recurrence_across_regimes():
    rng = random.Random(31)
    for trial in range(100):
        s = complex(rng.uniform(-3.0, 4.5), rng.uniform(-1.5, 1.5))
        v = complex(rng.uniform(0.3, 2.5), rng.uniform(-0.6, 0.6))
        kind = trial % 4
        if kind == 0:
            z = cmath.exp(2j * math.pi * rng.uniform(0.04, 0.96))
        elif kind == 1:
            z = rng.uniform(0.05, 0.9) * cmath.exp(1j * rng.uniform(-3.1, 3.1))
        elif kind == 2:
            z = rng.uniform(0.9975, 0.9989) * cmath.exp(1j * rng.uniform(0.1, 6.2))
        else:
            z = -1.0
            s = complex(round(s.real), 0.0)  # exercise the split/apostol joints
        lhs = lerch_phi(z, s, v)
        rhs = principal_power(v, -s) + z * lerch_phi(z, s, v + 1.0)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), (z, s, v)


def test_regime_agreement_series_vs_abel_plana():
    rng = random.Random(32)
    for _ in range(25):
        z = rng.uniform(0.9, 0.985) * cmath.exp(1j * rng.uniform(0.1, 6.2))
        s = complex(rng.uniform(-2.5, 4.0), rng.uniform(-1.0, 1.0))
        v = complex(rng.uniform(0.4, 2.0), rng.uniform(-0.5, 0.5))
        a = lerch_series(z, s, v)
        b = _abel_plana_phi(z, s, v)[0]
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a)), (z, s, v)


def test_regime_agreement_circle_vs_integral_oracle():
    # 15 draws on the circle with Re v in (0.5, 2), then 15 inside the disk
    # with Re v in (0.1, 0.3), where the oracle's tail panel is longest.
    rng = random.Random(33)
    for trial in range(30):
        if trial < 15:
            z = cmath.exp(2j * math.pi * rng.uniform(0.1, 0.9))
            re_v = rng.uniform(0.5, 2.0)
        else:
            z = rng.uniform(0.05, 0.99) * cmath.exp(2j * math.pi * rng.uniform(0.0, 1.0))
            re_v = rng.uniform(0.1, 0.3)
        s = complex(rng.uniform(0.6, 3.5), rng.uniform(-0.8, 0.8))
        v = complex(re_v, rng.uniform(-0.4, 0.4))
        a = lerch_phi(z, s, v)
        b = lerch_integral_oracle(z, s, v)
        assert abs(a - b) <= 1e-14 * max(1.0, abs(a)), (z, s, v)


def test_regime_agreement_apostol_vs_circle():
    rng = random.Random(34)
    for n in range(0, 6):
        z = cmath.exp(2j * math.pi * rng.uniform(0.1, 0.9))
        v = complex(rng.uniform(0.4, 1.8), rng.uniform(-0.4, 0.4))
        a = lerch_apostol(z, n, v)
        b = lerch_unit_circle_full(z, complex(-n), v)[0]
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a)), (z, n, v)


def test_apostol_is_polynomial_in_v():
    # n-th order form is degree-n in v: (n+1)-th finite difference vanishes
    z = 0.37 - 0.61j
    for n in (1, 2, 3):
        vals = [lerch_apostol(z, n, 1.0 + j) for j in range(n + 2)]
        diff = vals[:]
        for _ in range(n + 1):
            diff = [b - a for a, b in zip(diff, diff[1:])]
        scale = max(abs(v) for v in vals)
        assert abs(diff[0]) <= 1e-10 * scale


def _mp_lerch(mpmath, z, s, v):
    # mpmath's lerchphi at 30 digits is 6.4e-10 off at |z| = 1e-12.
    with mpmath.workdps(60 if abs(z) < 1e-6 else 30):
        return complex(mpmath.lerchphi(mpmath.mpc(z), mpmath.mpc(s), mpmath.mpc(v)))


def _abel_plana_route_points(rng, route, count):
    """Points that lerch_phi sends to the Abel-Plana evaluator.  Re v >= 0.1
    for Re s <= 0 (the closed form's s = -k) and Re v >= 0.3 otherwise:
    closer to Re v = 0 the factor (v +- it)^-s varies faster than the capped
    level resolves (see test_abel_plana_estimate_covers_near_singular_v)."""
    for _ in range(count):
        s = complex(rng.uniform(-6.0, 4.0), rng.uniform(-1.0, 1.0))
        v = complex(rng.uniform(0.1 if s.real <= 0 else 0.3, 2.0), rng.uniform(-1.0, 1.0))
        if route == "circle":  # |z - 1| >= 0.01
            z = cmath.exp(1j * rng.choice((1.0, -1.0)) * rng.uniform(0.01, math.pi))
        elif route == "annulus":
            rho = rng.uniform(0.999, 1.0 - 1e-6)
            z = rho * cmath.exp(1j * rng.uniform(0.01, 2 * math.pi - 0.01))
        else:  # the disk, |z| log-uniform
            rho = math.exp(rng.uniform(math.log(1e-6), math.log(0.999)))
            z = rho * cmath.exp(1j * rng.uniform(0.05, 2 * math.pi - 0.05))
        yield z, s, v


@pytest.mark.parametrize("route", ["circle", "annulus", "disk"])
def test_abel_plana_routes_match_mpmath(route, monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    import sixfold.lerch as lerch

    calls = []
    real = lerch._abel_plana_phi

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lerch, "_abel_plana_phi", spy)
    rng = random.Random({"circle": 61, "annulus": 62, "disk": 63}[route])
    for z, s, v in _abel_plana_route_points(rng, route, 6):
        calls.clear()
        got = lerch.lerch_phi(z, s, v)
        assert calls, (route, z, s, v)
        ref = _mp_lerch(mpmath, z, s, v)
        assert abs(got - ref) <= 1e-12 * abs(ref), (route, z, s, v)


def test_abel_plana_estimate_covers_near_singular_v():
    # Re v < 0.1 with Re s > 0: (v +- it)^-s peaks at t = |Im v|, a distance
    # Re v from the contour, and level 8 no longer resolves it (errors up to
    # 7.5e-4 relative were measured); the estimate must then cover the error.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(64)
    for _ in range(6):
        z = cmath.exp(1j * rng.choice((1.0, -1.0)) * rng.uniform(0.01, math.pi))
        s = complex(rng.uniform(2.0, 4.0), rng.uniform(-1.0, 1.0))
        v = complex(rng.uniform(0.05, 0.1), rng.choice((1.0, -1.0)) * rng.uniform(0.4, 1.0))
        val, est = lerch_unit_circle_full(z, s, v)
        err = abs(val - _mp_lerch(mpmath, z, s, v))
        assert err <= max(1e-12 * abs(val), est), (z, s, v)


def test_unit_circle_estimate_covers_error_at_level_cap():
    # Re v -> 0: the refinement reaches the level 8 cap without converging
    # (estimates 8.2e-8, 5.9e-9 and 2.7e-10 at caps 6, 7 and 8).
    mpmath = pytest.importorskip("mpmath")
    z = cmath.exp(2j * math.pi * 0.42097948679455266)
    s = -2.184593970874359
    v = 0.0026154932910290763 + 0.24329594840714694j
    val, est = lerch_unit_circle_full(z, s, v)
    assert abs(val - _mp_lerch(mpmath, z, s, v)) <= est <= 1e-9


def test_disk_peel_matches_direct_sum():
    # Below |z| = 0.05 lerch_phi adds v^-s to z Phi(z, s, v + 1).  Without
    # the peel, Abel-Plana alone was 3e-8 off at Re s < -6, |z| < 1e-6, and
    # 5e-3 off at |z| = 1e-100.  The reference sums the series at 50 digits,
    # since mpmath's lerchphi is itself 4e-10 off at |z| = 1e-27.
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(65)
    for _ in range(12):
        rho = math.exp(rng.uniform(math.log(1e-300), math.log(0.05)))
        z = rho * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        s = complex(rng.uniform(-12.0, 4.0), rng.uniform(-1.0, 1.0))
        v = complex(rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0))
        with mpmath.workdps(50):
            zz, ss, vv = mpmath.mpc(z), mpmath.mpc(s), mpmath.mpc(v)
            ref = complex(mpmath.fsum(zz**n * (vv + n) ** (-ss) for n in range(400)))
        got = lerch_phi(z, s, v)
        assert abs(got - ref) <= 1e-14 * abs(ref), (z, s, v)


def test_theorem_with_complex_m_matches_mpmath():
    # Complex m puts z = e^(2 pi i m) strictly inside the unit disk, where
    # the power series once cancelled (2.6e-9 at non-integer k, a < 0).
    mpmath = pytest.importorskip("mpmath")
    from sixfold import engine
    from sixfold.core import ParameterSet

    rng = random.Random(66)
    for _ in range(20):
        m = complex(rng.uniform(0.05, 0.95), rng.uniform(0.005, 0.1))
        k = rng.uniform(0.5, 6.0)
        ps = ParameterSet(k=k, a=-math.exp(rng.uniform(-1.6, 1.6)), m=m, u=-0.3, v=1.2, mu=-0.1, nu=0.9)
        got = engine.rhs_theorem(ps)
        with mpmath.workdps(30):
            mm, kk = mpmath.mpc(m), mpmath.mpf(k)
            vv = (mpmath.pi - 1j * mpmath.log(mpmath.mpc(ps.a))) / (2 * mpmath.pi)
            pref = (
                mpmath.exp((kk - 1) * 0.5j * mpmath.pi)
                * mpmath.pi ** (kk + 2)
                * mpmath.exp(1j * mpmath.pi * mm)
                * mpmath.mpf(2) ** (kk + mpmath.mpf(-0.1) + mpmath.mpf(-0.3))
            )
            ref = complex(pref * mpmath.lerchphi(mpmath.exp(2j * mpmath.pi * mm), -kk, vv))
        assert abs(got - ref) <= 1e-12 * abs(ref), (m, k, ps.a)
