import cmath
import math
import random

import pytest

from oracles import tanh_sinh_01
from sixfold import acceptance, engine, mellin
from sixfold.core import DomainError, ParameterSet, PoleError, derive_exponents, validate_parameters
from sixfold.legendre import kernel_factor_array
from sixfold.mellin import mellin_legendre_closed, mellin_legendre_quadrature
from sixfold.specialfn import gamma

# Fixed by the independent tanh-sinh oracle in tests/oracles.py applied to
# x^(-1/2) (1-x^2)^(-1/8) P_{3/4}^{1/4}(x) on (0, 1).
MELLIN_POINT = 0.8221789586624576


def test_closed_form_elementary_cases():
    for s in (0.7, 1.3, 2.0 + 0.4j):
        assert abs(mellin_legendre_closed(s, 0.0, 0.0) - 1.0 / s) < 1e-13 * abs(1.0 / s)
        assert abs(mellin_legendre_closed(s, 0.0, 1.0) - 1.0 / (s + 1.0)) < 1e-13


def test_closed_form_pole_and_zero():
    with pytest.raises(PoleError):
        mellin_legendre_closed(0.0, 0.0, 0.0)
    # denominator gamma pole -> exact zero of the transform
    assert mellin_legendre_closed(1.0, 3.0, 0.0) == 0.0


def test_quadrature_elementary_cases():
    assert abs(mellin_legendre_quadrature(1.0, 0.0, 0.0) - 1.0) < 1e-12
    assert abs(mellin_legendre_quadrature(2.0, 0.0, 1.0) - 1.0 / 3.0) < 1e-12


def test_quadrature_degree_two_point():
    q = mellin_legendre_quadrature(0.5, 0.0, 2.0)
    c = mellin_legendre_closed(0.5, 0.0, 2.0)
    assert abs(q - c) <= 1e-8 * abs(c)


def test_frozen_point_against_both_paths():
    closed = mellin_legendre_closed(0.5, 0.25, 0.75)
    quadr = mellin_legendre_quadrature(0.5, 0.25, 0.75)
    assert abs(closed - MELLIN_POINT) < 1e-10
    assert abs(quadr - MELLIN_POINT) < 1e-10
    # oracle reproducibility from this checkout
    oracle = tanh_sinh_01(
        lambda x, omx: x**-0.5 * float(kernel_factor_array(0.75, 0.25, x, omx)), level=7
    )
    assert abs(oracle - MELLIN_POINT) < 1e-12


def test_closed_vs_quadrature_random_strip():
    rng = random.Random(41)
    done_real = done_cplx = 0
    while done_real < 20 or done_cplx < 10:
        want_cplx = done_real >= 20
        if want_cplx:
            s = complex(rng.uniform(0.2, 2.5), rng.uniform(-1, 1))
            u = complex(rng.uniform(-1.5, 0.8), rng.uniform(-1, 1))
            v = complex(rng.uniform(-1, 2), rng.uniform(-1, 1))
        else:
            s = rng.uniform(0.1, 3.0)
            u = rng.uniform(-2.0, 0.9)
            v = rng.uniform(-1.5, 2.5)
        try:
            q = mellin_legendre_quadrature(s, u, v)
            c = mellin_legendre_closed(s, u, v)
        except (DomainError, PoleError):
            continue
        if abs(c) < 1e-10:
            continue
        assert abs(q - c) <= 1e-7 * abs(c), (s, u, v)
        if want_cplx:
            done_cplx += 1
        else:
            done_real += 1


def test_strip_preconditions():
    with pytest.raises(DomainError):
        mellin_legendre_quadrature(-0.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        mellin_legendre_quadrature(0.5, 1.5, 0.0)


def test_product_identity_sample():
    rng = random.Random(42)
    done = 0
    while done < 10:
        ps = ParameterSet(
            k=0,
            a=1,
            m=rng.uniform(0.05, 0.95),
            u=rng.uniform(-2, 0.95),
            v=rng.uniform(0.05, 2.5),
            mu=rng.uniform(-2, 0.95),
            nu=rng.uniform(0.05, 2.5),
        )
        if validate_parameters(ps):
            continue
        exq = derive_exponents(ps)
        lhs = (
            mellin_legendre_closed(ps.m, ps.u, ps.v)
            * mellin_legendre_closed(1.0 - ps.m, ps.mu, ps.nu)
            * gamma(exq.beta_t + 1.0)
            * gamma(exq.beta_z + 1.0)
            * gamma(exq.beta_p + 1.0)
            * gamma(exq.beta_q + 1.0)
        )
        rhs = (
            math.pi**2
            * cmath.exp((ps.mu + ps.u - 1.0) * math.log(2.0))
            / cmath.sin(math.pi * ps.m)
        )
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
        done += 1


@pytest.mark.parametrize("index", range(3))
def test_a_shifted_gamma_factor_fails_every_gate(monkeypatch, index):
    # One Gamma argument of M(s; u, v), moved by 0.01, must reach the moment
    # path, and through it A1, and the Mellin quadrature check (A10), since
    # both read the one table.
    real = mellin.mellin_gamma_factors

    def shifted(s, u, v):
        factors = list(real(s, u, v))
        z, rate, sign = factors[index]
        factors[index] = (z + 0.01, rate, sign)
        return tuple(factors)

    monkeypatch.setattr(mellin, "mellin_gamma_factors", shifted)
    monkeypatch.setattr(engine, "mellin_gamma_factors", shifted)
    ps = ParameterSet(k=3, a=1.5, m=0.4, u=-0.3, v=1.2, mu=-0.1, nu=0.9)
    rep = engine.verify("theorem", ps, paths=("jet", "moment", "closed"))
    assert rep.verdict == "fail"
    assert rep.diffs["jet|moment"]["rel"] > 1e-3 and rep.diffs["moment|closed"]["rel"] > 1e-3
    assert rep.diffs["jet|closed"]["rel"] < 1e-13
    assert not acceptance.criterion_a1_degenerate_product().passed
    a10 = acceptance.criterion_a10_module_oracles()
    assert not a10.passed and "mellin agreement" in a10.detail
