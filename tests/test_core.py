import math
import random

import pytest

from sixfold import specialfn
from sixfold.core import (
    PARAM_NAMES,
    DomainError,
    ParameterSet,
    Tolerances,
    derive_exponents,
    nearest_int,
    parameter_warnings,
    principal_power,
    validate_parameters,
)
from sixfold.jets import jet_csc
from sixfold.lerch import lerch_phi
from sixfold.quad import Integrand6D


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


@pytest.mark.parametrize("finite", [True, False], ids=["finite", "any"])
def test_validate_parameters_never_raises(finite):
    # "any" draws NaN and inf in most sets, which end the check early, so
    # the strip inequalities get a run on finite sets of their own.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    value = st.complex_numbers(allow_nan=not finite, allow_infinity=not finite)

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.fixed_dictionaries({name: value for name in PARAM_NAMES}))
    def never_raises(params):
        violations = validate_parameters(ParameterSet(**params))
        assert all(isinstance(v, str) for v in violations)

    never_raises()


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
    assert tuple(exq) == (0.0, 0.5, 0.0, -0.5)


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
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DomainError, match="finite"):
            Tolerances(rel_tol=bad)
        with pytest.raises(DomainError, match="finite"):
            Tolerances(abs_tol=bad)


def test_parameter_set_replace_immutable():
    ps = ParameterSet()
    ps2 = ps.replace(m=0.3)
    assert ps.m == 0.5 + 0j
    assert ps2.m == 0.3 + 0j
    assert math.isfinite(ps2.m.real)
    # A float or an int is stored as a complex number, as the constructor does.
    assert type(ps2.m) is complex and type(ps.replace(k=2).k) is complex
    copy = ps.replace()
    assert copy == ps and copy is not ps
    with pytest.raises(TypeError, match="unexpected keyword argument 'x'"):
        ps.replace(x=1.0)


@pytest.mark.parametrize("n", [-3, 0, 7])
@pytest.mark.parametrize("tol", [1e-13, 1e-12])
def test_nearest_int_edges(n, tol):
    for z in (n, n + tol / 2, n - tol / 2, complex(n, tol / 2)):
        got = nearest_int(z, tol)
        assert got == n and type(got) is int, z
    for z in (n + 2 * tol, n - 2 * tol, complex(n, 2 * tol), complex(n, -2 * tol)):
        assert nearest_int(z, tol) is None, z


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda: specialfn.gamma(_NAN),
        lambda: specialfn.digamma(_NAN),
        lambda: specialfn.hurwitz_zeta(_NAN, 1),
        lambda: specialfn.log_gamma(_INF),
        lambda: lerch_phi(0.5, _NAN, 1),
        lambda: lerch_phi(0.5, 1, _NAN),
        lambda: jet_csc(_NAN, 2),
        lambda: Integrand6D(ParameterSet(k=_NAN)),
    ],
    ids=["gamma", "digamma", "hurwitz_zeta", "log_gamma_inf", "lerch_s", "lerch_v", "jet_csc", "integrand_k"],
)
def test_non_finite_argument_raises_domain_error(call):
    # nearest_int, the package's one integer test, sees these first.
    with pytest.raises(DomainError, match="finite"):
        call()


def test_principal_power_zero_base():
    assert principal_power(0j, 0j) == 1
    assert principal_power(0j, 0.5 + 0j) == 0
    with pytest.raises(DomainError):
        principal_power(0j, -1 + 0j)


# Per strip inequality: one parameter changed from the reference set puts it
# within (0, 1e-8) of its boundary (inside) or just across it (outside).
_NEAR_BOUNDARY = [
    ("Re(u)<1", "u", 1 - 1e-9, 1 + 1e-9),
    ("0<Re(m)<1", "m", 1e-9, -1e-9),
    ("0<Re(m)<1", "m", 1 - 1e-9, 1 + 1e-9),
    ("Re(v)>0", "v", 1e-9, -1e-9),
    ("Re(m)<|Re(v)|", "v", 0.5 + 1e-9, 0.5 - 1e-9),
    ("Re(mu)<1", "mu", 1 - 1e-9, 1 + 1e-9),
    ("Re(nu)>0", "nu", 1e-9, -1e-9),
    ("Re(m)<|Re(nu)|", "nu", 0.5 + 1e-9, 0.5 - 1e-9),
    ("Re(beta_p)>-1", "mu", 0.5 - 2e-9, 0.5 + 2e-9),  # margin (1/2 - mu)/2
    ("Re(beta_q)>-1", "nu", -2.5 + 2e-9, -2.5 - 2e-9),  # margin (5/2 + nu)/2
    ("Re(beta_t)>-1", "u", 3.5 - 2e-9, 3.5 + 2e-9),  # margin (7/2 - u)/2
    ("Re(beta_z)>-1", "u", 0.5 - 2e-9, 0.5 + 2e-9),  # margin (1/2 - u)/2
]


@pytest.mark.parametrize(
    ("name", "param", "inside", "outside"),
    _NEAR_BOUNDARY,
    ids=[f"{name}@{inside}" for name, _, inside, _ in _NEAR_BOUNDARY],
)
def test_boundary_warning_and_violation_name_the_same_inequality(name, param, inside, outside):
    reference = ParameterSet(k=0, a=1, m=0.5, u=0, v=1, mu=0, nu=1)
    near = reference.replace(**{param: inside})
    assert f"within 1e-8 of boundary: {name}" in parameter_warnings(near)
    assert name not in validate_parameters(near)
    assert name in validate_parameters(reference.replace(**{param: outside}))


def test_csc_pole_advisory_is_the_last_warning():
    advisory = "m within 0.01 of the csc pole at an integer"
    for m in (0.005, 0.995):
        ps = ParameterSet(k=0, a=1, m=m, u=0, v=1, mu=0, nu=1)
        assert validate_parameters(ps) == []
        assert parameter_warnings(ps)[-1] == advisory
    for m in (0.02, 1.005):
        assert advisory not in parameter_warnings(ParameterSet(m=m))
