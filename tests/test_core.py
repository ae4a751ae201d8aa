import math
import random

import pytest

from sixfold.core import (
    DomainError,
    ParameterSet,
    Tolerances,
    derive_exponents,
    nearest_int,
    parameter_warnings,
    validate_parameters,
)


def test_valid_reference_set():
    ps = ParameterSet(k=0, a=1, m=0.5, u=0, v=1, mu=0, nu=1)
    assert validate_parameters(ps) == []


def test_m_out_of_strip():
    ps = ParameterSet(k=0, a=1, m=1.2, u=0, v=1, mu=0, nu=1)
    assert "0<Re(m)<1" in validate_parameters(ps)


def test_v_magnitude_violation():
    ps = ParameterSet(k=0, a=1, m=0.5, u=0, v=0.2, mu=0, nu=1)
    violations = validate_parameters(ps)
    assert "Re(m)<|Re(v)|" in violations


def test_nonfinite_reported_not_raised():
    ps = ParameterSet(k=0, a=1, m=float("nan"), u=0, v=1, mu=0, nu=1)
    violations = validate_parameters(ps)
    assert violations == ["finite(m)"]


def test_zero_a_rejected():
    ps = ParameterSet(k=0, a=0, m=0.5, u=0, v=1, mu=0, nu=1)
    assert "a != 0" in validate_parameters(ps)


def test_exponents_reference_point():
    exq = derive_exponents(ParameterSet(m=0.5, u=0, v=1, mu=0, nu=1))
    assert exq.beta_p == -0.75
    assert exq.beta_q == 0.75
    assert exq.beta_t == 0.75
    assert exq.beta_z == -0.75


def test_exponents_second_point():
    exq = derive_exponents(ParameterSet(m=0.5, u=0.25, v=0.75, mu=0, nu=1))
    assert exq.beta_t == pytest.approx(0.5)
    assert exq.beta_z == pytest.approx(-0.75)


def test_exponents_all_zero_parameters():
    exq = derive_exponents(ParameterSet(k=0, a=1, m=0, u=0, v=0, mu=0, nu=0))
    assert exq.as_tuple() == (0.0, 0.5, 0.0, -0.5)


def test_exponent_identities_random():
    rng = random.Random(4)
    for _ in range(200):
        ps = ParameterSet(
            m=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            u=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            v=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            mu=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            nu=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
        exq = derive_exponents(ps)
        # note: beta_t + beta_z carries the extra -1/2 from the z-exponent
        assert abs(exq.beta_t + exq.beta_z + 0.5 - (ps.m - ps.u)) < 1e-12
        assert abs(exq.beta_p + exq.beta_q - 0.5 - (-ps.mu - ps.m)) < 1e-12


def test_exponent_strip_violation_reported():
    ps = ParameterSet(k=0, a=1, m=0.3, u=0.5, v=1.5, mu=0.5, nu=2.0)
    violations = validate_parameters(ps)
    assert "Re(beta_z)>-1" in violations


def test_boundary_warning():
    ps = ParameterSet(k=0, a=1, m=5e-9, u=0, v=1, mu=0, nu=1)
    assert validate_parameters(ps) == []
    assert any("boundary" in w for w in parameter_warnings(ps))


def test_strict_strip_warning():
    ps = ParameterSet(k=0, a=1, m=0.7, u=0, v=1, mu=0, nu=1)
    assert validate_parameters(ps) == []
    assert any("strict-strip" in w for w in parameter_warnings(ps))


def test_conditioning_warning_near_exponent_boundary():
    ps = ParameterSet(k=5, a=1, m=0.647, u=-0.971, v=1.126, mu=0.034, nu=1.317)
    assert validate_parameters(ps) == []
    assert any("beta_p" in w and "degraded" in w for w in parameter_warnings(ps))


def test_tolerances_validation():
    with pytest.raises(DomainError):
        Tolerances(abs_tol=0.0, rel_tol=0.0)
    with pytest.raises(DomainError):
        Tolerances(abs_tol=-1.0, rel_tol=1e-9)


def test_parameter_set_replace_immutable():
    ps = ParameterSet()
    ps2 = ps.replace(m=0.3)
    assert ps.m == 0.5 + 0j
    assert ps2.m == 0.3 + 0j
    assert math.isfinite(ps2.m.real)


@pytest.mark.parametrize("n", [-3, 0, 7])
@pytest.mark.parametrize("tol", [1e-13, 1e-12])
def test_nearest_int_edges(n, tol):
    for z in (n, n + tol / 2, n - tol / 2, complex(n, tol / 2)):
        got = nearest_int(z, tol)
        assert got == n and type(got) is int, z
    for z in (n + 2 * tol, n - 2 * tol, complex(n, 2 * tol), complex(n, -2 * tol)):
        assert nearest_int(z, tol) is None, z
