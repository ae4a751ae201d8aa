import cmath
import math
import random

import pytest

from sixfold.acceptance import taylor_coefficients
from sixfold.core import DomainError, ParameterSet, PoleError
from sixfold.jets import (
    MAX_ORDER,
    Jet,
    closed_form_jet,
    jet_constant,
    jet_csc,
    jet_exp_linear,
    jet_of_gamma,
    jet_of_log_gamma,
    jet_variable,
)
from sixfold.specialfn import EULER_GAMMA, digamma, gamma


def test_mul_polynomials():
    one_plus = Jet((1.0, 1.0, 0.0))
    one_minus = Jet((1.0, -1.0, 0.0))
    prod = one_plus * one_minus
    assert prod.coeffs == (1.0 + 0j, 0.0 + 0j, -1.0 + 0j)


def test_exp_of_zero():
    assert jet_constant(0.0, 3).exp().coeffs == (1.0 + 0j, 0j, 0j, 0j)


def test_reciprocal_geometric():
    rec = Jet((1.0, -1.0, 0.0, 0.0, 0.0)).reciprocal()
    assert all(abs(c - 1.0) < 1e-15 for c in rec.coeffs)


def test_reciprocal_zero_constant_term():
    with pytest.raises(PoleError):
        Jet((0.0, 1.0)).reciprocal()


def test_product_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="non-finite jet coefficient"):
        Jet((1e200, 0)) * Jet((1e200, 0))
    # Every arithmetic route checks its result, and the error names the
    # first non-finite coefficient.
    overflows = {
        "scale": (lambda: Jet((1.0, -1e200, 1e300)).scale(1e200), "(-inf+0j)"),
        "stretch": (lambda: Jet((1.0, 1.0, 1.0)).stretch(1e200), "(inf+nanj)"),
        "add": (lambda: Jet((1.0, 1e308)) + Jet((1.0, 1e308)), "(inf+0j)"),
        "exp": (lambda: Jet((0.0, 1e200, 0.0)).exp(), "(inf+nanj)"),
    }
    for name, (overflow, first) in overflows.items():
        with pytest.raises(DomainError) as err:
            overflow()
        assert str(err.value) == f"non-finite jet coefficient {first}", name


def test_mul_commutative_associative():
    rng = random.Random(51)
    for _ in range(20):
        a = Jet(tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(5)))
        b = Jet(tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(5)))
        c = Jet(tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(5)))
        ab, ba = a * b, b * a
        assert max(abs(x - y) for x, y in zip(ab.coeffs, ba.coeffs)) < 1e-14
        left = (a * b) * c
        right = a * (b * c)
        scale = max(max(abs(x) for x in left.coeffs), 1.0)
        assert max(abs(x - y) for x, y in zip(left.coeffs, right.coeffs)) < 1e-13 * scale


def test_exp_add_identity():
    rng = random.Random(52)
    for _ in range(20):
        a = Jet(tuple(complex(rng.gauss(0, 0.7), rng.gauss(0, 0.7)) for _ in range(6)))
        b = Jet(tuple(complex(rng.gauss(0, 0.7), rng.gauss(0, 0.7)) for _ in range(6)))
        lhs = (a + b).exp()
        rhs = a.exp() * b.exp()
        scale = max(abs(x) for x in lhs.coeffs)
        assert max(abs(x - y) for x, y in zip(lhs.coeffs, rhs.coeffs)) <= 1e-12 * scale


def test_gamma_jet_at_one():
    jet = jet_of_gamma(1.0, 2)
    assert abs(jet[0] - 1.0) < 1e-14
    assert abs(jet[1] + EULER_GAMMA) < 1e-13
    expect2 = (EULER_GAMMA**2 + math.pi**2 / 6.0) / 2.0
    assert abs(jet[2] - expect2) < 5e-12
    # Cauchy's formula on |z - 1| = 1/4, a quarter of the way to the pole at 0
    assert abs(jet[2] - taylor_coefficients(gamma, 1.0, 0.25)[2]) < 1e-13


def test_gamma_jet_at_half():
    jet = jet_of_gamma(0.5, 1)
    rt_pi = math.sqrt(math.pi)
    assert abs(jet[0] - rt_pi) < 1e-14
    assert abs(jet[1] - rt_pi * digamma(0.5)) < 1e-12


def test_gamma_jet_recurrence():
    # Gamma(z0+1+w) = (z0+w) Gamma(z0+w), coefficientwise
    rng = random.Random(53)
    for _ in range(15):
        z0 = complex(rng.uniform(0.3, 4.0), rng.uniform(-1.5, 1.5))
        order = 5
        lhs = jet_of_gamma(z0 + 1.0, order)
        rhs = jet_variable(z0, order) * jet_of_gamma(z0, order)
        scale = max(abs(c) for c in lhs.coeffs)
        assert max(abs(a - b) for a, b in zip(lhs.coeffs, rhs.coeffs)) <= 1e-11 * scale


def test_csc_jet_at_half():
    jet = jet_csc(0.5, 1)
    assert abs(jet[0] - 1.0) < 1e-14
    assert abs(jet[1]) < 1e-13


def test_csc_jet_quarter_and_generic():
    assert abs(jet_csc(0.25, 0)[0] - math.sqrt(2.0)) < 1e-14
    got = jet_csc(0.3, 1)[1]
    s, c = math.sin(0.3 * math.pi), math.cos(0.3 * math.pi)
    expect = -math.pi * c / (s * s)
    assert abs(got - expect) < 1e-13
    cauchy = taylor_coefficients(lambda z: 1.0 / cmath.sin(math.pi * z), 0.3, 0.075)
    assert abs(got - cauchy[1]) < 1e-13


def test_csc_jet_integer_pole():
    with pytest.raises(PoleError):
        jet_csc(1.0, 2)


def test_closed_form_jet_degenerate_coefficient():
    ps = ParameterSet(k=0, a=1.0, m=0.37, u=-0.2, v=1.1, mu=0.3, nu=0.9)
    jet = closed_form_jet(ps, 0)
    expect = (
        math.pi**2
        * cmath.exp((ps.mu + ps.u - 1.0) * math.log(2.0))
        / cmath.sin(math.pi * ps.m)
    )
    assert abs(jet[0] - expect) < 1e-13 * abs(expect)


def test_closed_form_jet_symmetric_zero():
    jet = closed_form_jet(ParameterSet(a=1.0, m=0.5), 1)
    assert abs(jet[1]) < 1e-13


def test_closed_form_jet_log_slope():
    jet = closed_form_jet(ParameterSet(a=math.e, m=0.5, u=0.0, mu=0.0), 1)
    assert abs(jet[1] - math.pi**2 / 2.0) < 1e-12


def test_exp_linear_coefficients():
    c = 0.4 - 1.1j
    jet = jet_exp_linear(c, 5)
    fact = 1.0
    for j in range(6):
        if j:
            fact *= j
        assert abs(jet[j] - c**j / fact) < 1e-14


def test_order_cap():
    with pytest.raises(DomainError):
        Jet((1.0,) * 14)
    with pytest.raises(DomainError):
        jet_of_gamma(1.0, 11)


def test_one_order_bound():
    # MAX_ORDER, the jet paths' largest k, bounds every jet.
    assert MAX_ORDER == 10
    assert len(jet_of_log_gamma(1.0, MAX_ORDER).coeffs) == 11
    with pytest.raises(DomainError, match="capped at 10"):
        jet_of_log_gamma(1.0, 11)
    with pytest.raises(DomainError, match="capped at 10"):
        Jet((1.0,) * 12)
