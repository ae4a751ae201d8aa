"""Acceptance gate: every criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
pass/fail report per criterion (the CLI ``sixfold selftest`` prints the
same lines).
"""

import re

import numpy as np
import pytest

import sixfold.acceptance as acceptance
import sixfold.engine as engine
import sixfold.legendre as legendre
import sixfold.lerch as lerch
import sixfold.mellin as mellin
import sixfold.specialfn as specialfn
from sixfold.acceptance import ALL_CRITERIA, criterion_a10_module_oracles
from sixfold.jets import Jet


_NUM = r"-?\d\.\d+e[-+]\d\d"
_A4_STEP = rf"k={{}}: tensor diff {_NUM}, qmc diff {_NUM} vs 3se {_NUM}"
# What each passing criterion's detail must read, number formats included:
# a criterion that skips a step it reports, such as A4 stopping after k = 0,
# fails here even where every step it ran passed.
_DETAIL = {
    "criterion_a1_degenerate_product": rf"worst rel {_NUM}",
    "criterion_a2_theorem_integer_k": rf"worst scaled diff {_NUM}",
    "criterion_a3_path_independence": rf"worst scaled diff {_NUM}",
    "criterion_a4_direct_6d": "; ".join(_A4_STEP.format(k) for k in (0, 1, 2)),
    "criterion_a5_zeta_line": rf"worst scaled diff {_NUM}",
    "criterion_a6_apery": rf"rel {_NUM}, value \S+j",
    "criterion_a7_log2_limit": rf"diff {_NUM} \(estimate \d\.\de[-+]\d\d\)",
    "criterion_a8_harmonic_limit": rf"limit rel {_NUM}; qmc diff {_NUM} vs 3se {_NUM}",
    "criterion_a9_difference_identities": rf"log3 diff {_NUM}, arccoth diff {_NUM}",
    "criterion_a10_module_oracles": ", ".join(
        rf"{name} \d\.\de[-+]\d\d" for name in ("lerch", "legendre", "mellin", "gamma", "jets")
    ),
}


@pytest.mark.parametrize(
    ("criterion", "budget"),
    [(fn, budget) for fn, budget, _ in ALL_CRITERIA],
    ids=[fn.__name__ for fn, _, _ in ALL_CRITERIA],
)
def test_criterion(criterion, budget):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"\n{status}  {result.name}  [{result.seconds:.1f}s]  {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    assert re.fullmatch(_DETAIL[criterion.__name__], result.detail), result.detail
    assert 0 < result.seconds < budget, "over time budget"


def test_a1_check_sees_the_moment_path(monkeypatch):
    # A1 reads the moment path at k = 0, so 1e-9 added to every log-gamma
    # jet's constant term (a relative 2e-9 on the product) must show.
    real = engine.jet_of_log_gamma

    def shifted(z0, order):
        jet = real(z0, order)
        return Jet((jet[0] + 1e-9, *jet.coeffs[1:]))

    monkeypatch.setattr(engine, "jet_of_log_gamma", shifted)
    result = acceptance.criterion_a1_degenerate_product()
    assert not result.passed, result.detail


def test_a1_strip_draw_stops_at_its_limit(monkeypatch):
    # With every strip refused, A1 must fail after its draw limit, naming
    # the cause, rather than draw forever.
    monkeypatch.setattr(acceptance, "validate_parameters", lambda ps: ["refused"])
    result = acceptance.criterion_a1_degenerate_product()
    assert not result.passed
    assert result.detail == "only 0 of 50 strips valid in 1000 draws"


@pytest.mark.parametrize(
    ("name", "defect"),
    [
        ("riemann_zeta", lambda real: lambda s: real(s) * (1.0 + 1e-9)),
        ("_RICHARDSON_EPS", lambda eps: eps[:-1]),
    ],
    ids=["zeta_scaled", "richardson_level_dropped"],
)
def test_a7_sees_limit_defects(monkeypatch, name, defect):
    # A7 reads 9.0e-15.  A relative 1e-9 in the zeta its family reads, or
    # Richardson one level short, moves the limit by about 1e-9.
    monkeypatch.setattr(engine, name, defect(getattr(engine, name)))
    result = acceptance.criterion_a7_log2_limit()
    assert not result.passed, result.detail


def test_a10_mellin_draw_stops_at_its_limit(monkeypatch):
    # With every closed value skipped as near zero, A10's Mellin draw must
    # stop at its limit and name the cause rather than draw forever.
    monkeypatch.setattr(mellin, "mellin_legendre_closed", lambda s, u, v: 0.0)
    result = criterion_a10_module_oracles()
    assert not result.passed
    assert "mellin: only 0 of 70 points with |closed| >= 1e-10 in 1000 draws" in result.detail


def test_a10_gamma_check_sees_the_lanczos_core(monkeypatch):
    # gamma evaluates Re z < 1/2 by reflection, so a reflection check reads
    # ~1e-15 whatever the Lanczos core returns; duplication does not.
    core = specialfn._lanczos_log_gamma
    monkeypatch.setattr(specialfn, "_lanczos_log_gamma", lambda z: core(z) + 1e-9)
    result = criterion_a10_module_oracles()
    assert not result.passed
    assert "gamma" in result.detail, result.detail


def test_a10_lerch_check_sees_the_evaluator(monkeypatch):
    # Every Lerch trial compares an Abel-Plana value with an independent
    # oracle, so a relative defect of 1e-10 in that evaluator must show.
    real = lerch._abel_plana_phi

    def scaled(z, s, v):
        val, est = real(z, s, v)
        return val * (1.0 + 1e-10), est

    monkeypatch.setattr(lerch, "_abel_plana_phi", scaled)
    result = criterion_a10_module_oracles()
    assert not result.passed
    assert "lerch" in result.detail, result.detail


def test_a10_lerch_check_sees_the_laplace_route(monkeypatch):
    # On the circle Re s > 0.5 takes the Laplace form, which A10 compares
    # with Abel-Plana.  With the z = -1 split check made to agree, the
    # circle trials alone must see a relative defect of 1e-10 in the route.
    real = lerch._laplace_phi

    def scaled(z, s, v):
        val, est = real(z, s, v)
        return val * (1.0 + 1e-10), est

    monkeypatch.setattr(lerch, "_laplace_phi", scaled)
    monkeypatch.setattr(lerch, "lerch_minus_one_split", lambda s, v: lerch.lerch_unit_circle_full(-1.0, s, v)[0])
    result = criterion_a10_module_oracles()
    assert not result.passed
    assert "lerch" in result.detail, result.detail


def test_a10_reads_the_circle_route_from_lerch(monkeypatch):
    # With the Laplace bound moved out of reach, every circle point takes
    # Abel-Plana; A10 must then compare it with the recurrence, never with
    # Abel-Plana at the same (z, s, v).
    monkeypatch.setattr(lerch, "_LAPLACE_MIN_RE_S", 10.0)
    real = lerch._abel_plana_phi
    seen = []

    def spy(z, s, v):
        seen.append((z, s, v))
        return real(z, s, v)

    monkeypatch.setattr(lerch, "_abel_plana_phi", spy)
    assert criterion_a10_module_oracles().passed
    assert seen and len(set(seen)) == len(seen)


def test_a10_legendre_check_sees_the_evaluator(monkeypatch):
    # The Legendre grid compares the paths' kernel with the degree
    # recurrence, so a relative defect of 1e-11 in the kernel must show.
    real = legendre.kernel_factor_array
    monkeypatch.setattr(legendre, "kernel_factor_array", lambda *args: real(*args) * (1.0 + 1e-11))
    result = criterion_a10_module_oracles()
    assert not result.passed
    assert "legendre" in result.detail, result.detail


def test_a10_legendre_check_sees_the_series_cancel(monkeypatch):
    # With the series bound raised above the grid's degree 20, the Gauss
    # series alone serves every point; it cancels to 1.9e-9, over 1e-12.
    monkeypatch.setattr(legendre, "_SERIES_DEGREE", 21.0)
    result = criterion_a10_module_oracles()
    assert not result.passed
    assert "legendre agreement" in result.detail, result.detail


def test_a10_jet_check_sees_the_jets(monkeypatch):
    # The jet coefficients are compared with Cauchy's formula on the scalar
    # product, so a relative defect of 1e-11 in closed_form_jet must show.
    real = acceptance.closed_form_jet
    monkeypatch.setattr(acceptance, "closed_form_jet", lambda ps, order: real(ps, order).scale(1.0 + 1e-11))
    result = criterion_a10_module_oracles()
    assert not result.passed
    assert "jet" in result.detail, result.detail


def test_a10_passes_where_long_double_is_double(monkeypatch):
    # On Windows and macOS arm64 long double is double; A10 must not lean on
    # extended precision for its oracles.
    monkeypatch.setattr(np, "longdouble", np.float64)
    monkeypatch.setattr(np, "clongdouble", np.complex128)
    result = criterion_a10_module_oracles()
    assert result.passed, result.detail
