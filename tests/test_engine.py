import cmath
import dataclasses
import json
import math
import random
import re
from pathlib import Path

import pytest

from sixfold import engine, quad
from sixfold.acceptance import taylor_coefficients
from sixfold.core import (
    DomainError,
    InadmissibleError,
    ParameterSet,
    SixfoldError,
    Tolerances,
    validate_parameters,
)
from sixfold.quad import QmcSpec
from sixfold.specialfn import harmonic, riemann_zeta

REFERENCE = ParameterSet(k=0, a=1.0, m=0.5, u=0.0, v=1.0, mu=0.0, nu=1.0)
ZETA3 = riemann_zeta(3.0).real


def _random_valid(rng, k=0.0, a=1.0):
    while True:
        ps = ParameterSet(
            k=k,
            a=a,
            m=rng.uniform(0.05, 0.95),
            u=rng.uniform(-2.0, 0.95),
            v=rng.uniform(0.05, 2.5),
            mu=rng.uniform(-2.0, 0.95),
            nu=rng.uniform(0.05, 2.5),
        )
        if not validate_parameters(ps):
            return ps


def test_lhs_jet_k0_closed_form():
    rng = random.Random(61)
    for _ in range(10):
        ps = _random_valid(rng)
        expect = (
            math.pi**2
            * cmath.exp((ps.mu + ps.u - 1.0) * math.log(2.0))
            / cmath.sin(math.pi * ps.m)
        )
        assert abs(engine.lhs_jet(ps) - expect) < 1e-12 * abs(expect)


def test_lhs_jet_symmetric_zero():
    assert abs(engine.lhs_jet(REFERENCE.replace(k=1))) < 1e-13


def test_lhs_jet_second_derivative_point():
    # F(w) = (pi^2/2) sec(pi w); its second derivative at 0, from Cauchy's
    # formula, fixes the k = 2 value.
    ps = REFERENCE.replace(k=2)
    coeffs = taylor_coefficients(lambda w: math.pi**2 / 2.0 / cmath.cos(math.pi * w), 0.0, 0.125)
    d2 = 2.0 * coeffs[2]
    got = engine.lhs_jet(ps)
    assert abs(got - d2) < 1e-13 * abs(d2)
    assert abs(got - math.pi**4 / 2.0) < 1e-11 * abs(got)


def test_rhs_theorem_k0_reduces_to_csc_form():
    rng = random.Random(62)
    for a in (0.5, 1.0, 2.0, -2.0):
        ps = _random_valid(rng, a=a)
        got = engine.rhs_theorem(ps)
        expect = engine.rhs_example("degenerate", ps)
        assert abs(got - expect) <= 1e-12 * abs(expect), ps


def test_rhs_theorem_k1_vanishes_at_half():
    assert abs(engine.rhs_theorem(REFERENCE.replace(k=1))) < 1e-13


def test_theorem_paths_agree_random_sample():
    rng = random.Random(63)
    for _ in range(15):
        k = rng.randint(0, 6)
        a = rng.choice([0.5, 1.0, 1.5, math.e, 2.7])
        ps = _random_valid(rng, k=k, a=a)
        jet = engine.lhs_jet(ps)
        closed = engine.rhs_theorem(ps)
        moment = engine.lhs_moment_expansion(ps)
        assert abs(jet - closed) <= 1e-9 * (1.0 + abs(closed)), ps
        assert abs(moment - jet) <= 1e-9 * (1.0 + abs(jet)), ps


def _conjugation_errors(seed: int, draw_k) -> list[float]:
    """Relative distance of rhs_theorem at conj(a) from conj(rhs_theorem(a))
    over 20 seeded real strips with real k and arg a in (0, pi).  Only a is
    complex in the integrand, so conjugating a conjugates the integral."""
    rng = random.Random(seed)
    errors = []
    for _ in range(20):
        k = draw_k(rng)
        a = rng.uniform(0.2, 5.0) * cmath.exp(1j * rng.uniform(0.05, math.pi - 0.05))
        ps = _random_valid(rng, k=k, a=a)
        want = engine.rhs_theorem(ps).conjugate()
        errors.append(abs(engine.rhs_theorem(ps.replace(a=ps.a.conjugate())) - want) / abs(want))
    return errors


def test_rhs_theorem_conjugates_with_a_at_integer_k():
    # S^k is single-valued at integer k, so both half-planes agree.
    assert max(_conjugation_errors(151, lambda rng: rng.randint(0, 6))) < 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 15: at non-integer k and arg a < 0, rhs_theorem continues the "
    "upper half-plane form across a > 0, which is not the integral",
)
def test_rhs_theorem_conjugates_with_a_at_non_integer_k():
    assert max(_conjugation_errors(152, lambda rng: rng.uniform(-0.9, 6.0))) < 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 19 and 16: apery's closed, special and limit paths all reach "
    "hurwitz_zeta, so a defect there passes; item 16's jet at k = -3 must flip this",
)
def test_hurwitz_zeta_defect_fails_every_apery_call(monkeypatch):
    # hurwitz_zeta scaled by 1 + 1e-3 in every module that holds it; the
    # benchmark's analytic paths, of which apery admits closed, special and
    # limit today.
    import sixfold.lerch as lerch
    import sixfold.specialfn as specialfn

    real = specialfn.hurwitz_zeta
    for module in (specialfn, lerch):
        monkeypatch.setattr(module, "hurwitz_zeta", lambda s, v: real(s, v) * (1.0 + 1e-3))
    rng = random.Random(190)
    verdicts = []
    while len(verdicts) < 20:
        ps = ParameterSet(
            u=rng.uniform(-2.0, 0.95), v=rng.uniform(0.05, 2.5), mu=rng.uniform(-2.0, 0.95), nu=rng.uniform(0.05, 2.5)
        )
        report = engine.verify("apery", ps, paths=("jet", "moment", "closed", "special", "limit"))
        if report.verdict != "invalid_parameters":
            verdicts.append(report.verdict)
    assert verdicts == ["fail"] * 20


def test_product_identity_symmetric_pair():
    ps = _random_valid(random.Random(64))
    pair = ps.replace(m=1.0 - ps.m.real)
    lhs1, rhs1 = engine.lhs_moment_expansion(ps), engine.rhs_example("degenerate", ps)
    lhs2, rhs2 = engine.lhs_moment_expansion(pair), engine.rhs_example("degenerate", pair)
    assert abs(rhs1 - rhs2) < 1e-12 * abs(rhs1)
    assert abs(lhs1 - lhs2) < 1e-10 * abs(lhs1)


def test_eta_line_algebra():
    case = engine.catalog_case("eta_zeta_line")
    for k in (0.5, 2.0, 3.0, 4.0):
        ps = ParameterSet(k=k, a=1.0, m=1.0, u=0.0, v=1.0, mu=0.0, nu=1.0)
        closed = engine.rhs_theorem(engine.theorem_parameters(case, ps))
        special = engine.rhs_example(case, ps)
        assert abs(closed - special) <= 1e-8 * (1.0 + max(abs(closed), abs(special))), k


def test_apery_value():
    case = engine.catalog_case("apery")
    ps = ParameterSet(k=-3.0, a=1.0, m=1.0, u=0.0, v=1.0, mu=0.0, nu=1.0)
    expect = 3j * ZETA3 / (32.0 * math.pi)
    assert abs(engine.rhs_example(case, ps) - expect) < 1e-12
    closed = engine.rhs_theorem(engine.theorem_parameters(case, ps))
    assert abs(closed - expect) <= 1e-9 * abs(expect)
    assert abs(expect - 0.0358712j) < 1e-7


def test_log2_constant():
    case = engine.catalog_case("log2_limit")
    ps = ParameterSet(k=-1.0, a=1.0, m=1.0, u=0.0, v=1.0, mu=0.0, nu=1.0)
    expect = -1j * math.pi * math.log(2.0) / 2.0
    assert abs(engine.rhs_example(case, ps) - expect) < 1e-14
    closed = engine.rhs_theorem(engine.theorem_parameters(case, ps))
    assert abs(closed - expect) <= 1e-12 * abs(expect)
    limit, est = engine.rhs_limit_full(case, ps)
    assert abs(limit - expect) <= 1e-6
    assert est < 1e-6


def test_harmonic_closed_form_matches_stated_form():
    ps = ParameterSet(k=-1.0, a=-2.0, m=0.5, u=0.0, v=1.0, mu=0.0, nu=1.0)
    case = engine.catalog_case("harmonic_limit")
    got = engine.rhs_example(case, ps)
    c = math.log(2.0) / (4.0 * math.pi)
    expect = -1j * math.pi * 0.25 * (harmonic(-1j * c) - harmonic(-0.5 - 1j * c))
    assert abs(got - expect) < 1e-13 * abs(expect)
    closed = engine.rhs_theorem(ps)
    assert abs(closed - expect) <= 1e-11 * abs(expect)
    limit, _ = engine.rhs_limit_full(case, ps)
    assert abs(limit - expect) <= 1e-9 * (1.0 + abs(expect))


def test_difference_identities_reproduce_constants():
    ps = ParameterSet(k=-1.0, a=1.0, m=0.5, u=0.0, v=1.0, mu=0.0, nu=1.0)
    got3 = engine.rhs_example("difference_arctanh", ps, second=1.0 / 3.0)
    assert abs(got3 - (-math.pi * math.log(3.0) / 4.0)) < 1e-12
    got4 = engine.rhs_example("difference_arctanh", ps, second=0.25)
    assert abs(got4 - (-math.pi * math.log(1.0 + math.sqrt(2.0)) / 2.0)) < 1e-12


def test_difference_closed_path_via_lerch():
    ps = ParameterSet(k=-1.0, a=1.0, m=0.5, u=0.0, v=1.0, mu=0.0, nu=1.0)
    rep = engine.verify("log3", ps, tol=Tolerances(abs_tol=1e-11, rel_tol=1e-10))
    assert rep.verdict == "pass"
    assert rep.paths["closed"].status == "ok"
    assert abs(rep.paths["closed"].value - rep.paths["special"].value) < 1e-11


def test_rhs_limit_validation():
    ps = ParameterSet(k=-1.0, a=1.0, m=1.0)
    with pytest.raises(Exception):
        engine.rhs_limit_full("degenerate", ps)


def test_rhs_limit_divergence_is_a_path_error(monkeypatch):
    # A family with a pole of order 4 at the limit point k0 = -1: a level of
    # the Neville table then moves the value more than ten times as far as
    # the level before.  Order 2 does not.
    family = dataclasses.replace(
        engine.catalog_case("eta_zeta_line"), special=lambda ps, n: (ps.k + 1) ** -4
    )
    monkeypatch.setitem(engine._CATALOG_BY_TAG, "eta_zeta_line", family)
    rep = engine.verify("log2_limit", ParameterSet(), paths=("limit",))
    assert rep.paths["limit"].status == "error"
    assert rep.paths["limit"].detail == "DomainError: Richardson extrapolation diverged"


def test_verify_multi_path_pass():
    rep = engine.verify(
        "theorem",
        ParameterSet(k=2, a=1.5, m=0.4, u=-0.3, v=1.2, mu=-0.1, nu=0.9),
        tol=Tolerances(abs_tol=1e-12, rel_tol=1e-8),
        paths=("jet", "moment", "closed"),
    )
    assert rep.verdict == "pass"
    assert set(rep.paths) == {"jet", "moment", "closed"}
    assert all(r.status == "ok" for r in rep.paths.values())


def test_verify_reports_numeric_failure_as_path_error(monkeypatch):
    def broken(*args):
        raise DomainError("no convergence")

    monkeypatch.setattr(engine, "lhs_moment_expansion", broken)
    rep = engine.verify("theorem", REFERENCE, paths=("jet", "moment", "closed"))
    assert rep.paths["moment"].status == "error"
    assert rep.paths["moment"].detail == "DomainError: no convergence"
    assert rep.paths["jet"].status == rep.paths["closed"].status == "ok"


def test_verify_propagates_programming_errors(monkeypatch):
    def broken(*args):
        raise TypeError("bad operand")

    monkeypatch.setattr(engine, "lhs_moment_expansion", broken)
    with pytest.raises(TypeError, match="bad operand"):
        engine.verify("theorem", REFERENCE, paths=("jet", "moment", "closed"))


def _count_path_runs(monkeypatch) -> list:
    """Record the name of every ``PATHS`` entry that runs."""
    calls = []
    for name, entry in list(engine.PATHS.items()):
        run = lambda call, name=name, run=entry.run: calls.append(name) or run(call)
        monkeypatch.setitem(engine.PATHS, name, entry._replace(run=run))
    return calls


def test_verify_invalid_parameters(monkeypatch):
    calls = _count_path_runs(monkeypatch)
    rep = engine.verify("theorem", ParameterSet(k=0, m=1.2, nu=-0.5), paths=("closed", "jet", "qmc"))
    assert rep.verdict == "invalid_parameters" and not rep.passed
    assert list(rep.paths) == ["closed", "jet", "qmc"]
    for r in rep.paths.values():
        assert (r.status, r.value, r.err, r.detail, r.seconds) == ("error", None, None, "parameters invalid", 0.0)
    assert rep.diffs == {}
    assert rep.violations == validate_parameters(rep.params) and "0<Re(m)<1" in rep.violations
    assert calls == []


def test_verify_runs_a_repeated_path_once(monkeypatch):
    calls = _count_path_runs(monkeypatch)
    rep = engine.verify("theorem", REFERENCE, paths=("closed", "jet", "closed", "jet", "moment"))
    assert calls == ["closed", "jet", "moment"]
    assert list(rep.paths) == ["closed", "jet", "moment"] and rep.verdict == "pass"


def test_verify_rejects_an_unknown_path_before_running_any(monkeypatch):
    calls = _count_path_runs(monkeypatch)
    with pytest.raises(DomainError) as excinfo:
        engine.verify("theorem", REFERENCE, paths=("jet", "nope"))
    valid = "('jet', 'moment', 'tensor', 'qmc', 'closed', 'special', 'limit')"
    assert str(excinfo.value) == f"unknown path 'nope'; valid: {valid}"
    assert calls == []


def test_verify_refuses_an_empty_path_request(monkeypatch):
    calls = _count_path_runs(monkeypatch)
    ps = ParameterSet(k=2, a=1.5, m=0.4, u=-0.3, v=1.2, mu=-0.1, nu=0.9)
    with pytest.raises(DomainError, match=r"^no path requested; valid: \('jet', 'moment', "):
        engine.verify("theorem", ps, paths=())
    assert calls == []


# ``judge`` on synthetic path results: no path runs.
def _ok(value, err=None):
    return engine.PathResult("ok", value, err)


_OFF = engine.PathResult("inadmissible", detail="not here")
_ERR = engine.PathResult("error", detail="DomainError: no convergence")


def test_judge_passes_when_every_pair_agrees():
    results = {"jet": _ok(0.0), "moment": _ok(0.0), "closed": _ok(1e-12j)}
    decision = engine.judge(results, Tolerances(abs_tol=1e-12, rel_tol=1e-8))
    assert decision.verdict == "pass"
    assert [(row.name, row.abs, row.rel) for row in decision.pairs] == [
        ("jet|moment", 0.0, 0.0),
        ("jet|closed", 1e-12, 1.0),
        ("moment|closed", 1e-12, 1.0),
    ]
    assert decision.pairs[0].margin == 0.0


def test_judge_fails_on_one_disagreeing_pair():
    # qmc's error estimate covers its distance to both others, but jet and
    # closed, which have none, differ.
    results = {"jet": _ok(1.0), "qmc": _ok(1.5, 0.2), "closed": _ok(2.0)}
    decision = engine.judge(results, Tolerances())
    assert decision.verdict == "fail"
    assert decision.pairs[1][:3] == ("jet|closed", 1.0, 0.5)
    assert engine.judge({p: results[p] for p in ("jet", "qmc")}, Tolerances()).verdict == "pass"
    assert engine.judge({p: results[p] for p in ("qmc", "closed")}, Tolerances()).verdict == "pass"


@pytest.mark.parametrize(
    "results",
    [{"tensor": _OFF, "qmc": _OFF}, {"jet": _ok(1.0), "tensor": _OFF, "qmc": _OFF}],
    ids=["none computed", "one computed"],
)
def test_judge_passes_vacuously_below_two_computed(results):
    assert engine.judge(results, Tolerances()) == ("pass", ())


@pytest.mark.parametrize(
    "results",
    [{"moment": _ERR, "tensor": _OFF}, {"jet": _ok(1.0), "moment": _ERR, "tensor": _OFF}],
    ids=["none computed", "one computed"],
)
def test_judge_fails_below_two_computed_when_a_path_errored(results):
    assert engine.judge(results, Tolerances()) == ("fail", ())


def test_judge_passes_two_agreeing_paths_beside_an_error():
    # The error sets only the CLI's exit code 3.
    results = {"jet": _ok(2.0), "moment": _ERR, "closed": _ok(2.0)}
    decision = engine.judge(results, Tolerances())
    assert decision.verdict == "pass"
    assert [row[:3] for row in decision.pairs] == [("jet|closed", 0.0, 0.0)]


def test_judge_bound_is_inclusive():
    # Every term is exact in binary: 0.25 + 0.25 * 7 + 3 * (0.25 + 0.25) = 3.5,
    # and so is each difference (7 - b for b in [3.5, 7]).
    tol = Tolerances(abs_tol=0.25, rel_tol=0.25)
    at_bound = {"qmc": _ok(7.0, 0.25), "tensor": _ok(3.5, 0.25)}
    assert engine.judge(at_bound, tol) == ("pass", (("qmc|tensor", 3.5, 0.5, 3.5, 1.0),))
    above = {"qmc": _ok(7.0, 0.25), "tensor": _ok(math.nextafter(3.5, 0.0), 0.25)}
    decision = engine.judge(above, tol)
    (row,) = decision.pairs
    assert decision.verdict == "fail" and row.abs == math.nextafter(3.5, 4.0)
    assert row.bound == 3.5 and row.margin > 1.0


@pytest.mark.parametrize(
    "a, b, err",
    [
        (math.nan, 1.0, 0.0),
        (1.0, complex(1.0, math.nan), 0.0),
        (math.nan, math.nan, 0.0),
        (1.0, 1.0, math.nan),
        (math.inf, 1.0, 0.0),
        (1.0, 1.0, math.inf),
    ],
    ids=["first", "second", "both", "estimate", "infinite", "infinite_estimate"],
)
def test_judge_never_passes_nan(a, b, err):
    # An infinite value or err makes the bound infinite, which no pair meets.
    # Where abs is 0 (the estimate cases), a NaN or infinite bound still
    # gives an infinite margin: that rule comes before the one for abs 0.
    results = {"jet": _ok(a), "qmc": _ok(b, err)}
    decision = engine.judge(results, Tolerances(abs_tol=1e300, rel_tol=1e300))
    assert decision.verdict == "fail"
    assert [row.margin for row in decision.pairs] == [math.inf]


def test_judge_diffs_follow_report_order():
    results = {"qmc": _ok(1.0), "jet": _ok(1.0), "tensor": _OFF, "closed": _ok(1.0), "limit": _ok(1.0)}
    names = [row.name for row in engine.judge(results, Tolerances()).pairs]
    assert names == ["qmc|jet", "qmc|closed", "qmc|limit", "jet|closed", "jet|limit", "closed|limit"]


def test_path_table_order_is_the_report_order():
    # perfbench/run.py names its engine.path_s.* metrics from its own copy
    # of this tuple.
    assert engine.PATH_NAMES == ("jet", "moment", "tensor", "qmc", "closed", "special", "limit")
    assert engine.PATH_NAMES == tuple(engine.PATHS)
    for case in engine.CATALOG:
        names = iter(engine.PATH_NAMES)
        assert all(p in names for p in case.paths), case.tag


def test_path_entries_return_value_and_err():
    # An entry returns only numbers; verify builds every PathResult.
    ps = ParameterSet(k=2, a=1.5, m=0.4, u=-0.3, v=1.2, mu=-0.1, nu=0.9)
    spec = QmcSpec(count=1 << 10)
    value, err = engine.PATHS["jet"].run(engine.PathCall(engine.catalog_case("theorem"), ps, ps, None, spec))
    assert value == engine.lhs_jet(ps) and err is None
    runs = {path: "theorem" for path in ("jet", "moment", "tensor", "qmc", "closed")}
    runs.update(special="degenerate", limit="log2_limit")
    for path, tag in runs.items():
        case = engine.catalog_case(tag)
        ps_eff = ps.replace(**case.pins)
        ps_thm = engine.theorem_parameters(case, ps_eff)
        value, err = engine.PATHS[path].run(engine.PathCall(case, ps_eff, ps_thm, None, spec))
        assert cmath.isfinite(value) and (err is None or math.isfinite(err)), path


def test_catalog_case_returns_an_entry_unchanged():
    case = engine.catalog_case("apery")
    assert engine.catalog_case(case) is case
    with pytest.raises(DomainError, match="unknown case tag 'nope'"):
        engine.catalog_case("nope")


def test_verify_reports_inadmissible_paths():
    ps = ParameterSet(k=0.5, a=1.0, m=0.4, u=0.0, v=1.0, mu=0.0, nu=1.0)
    rep = engine.verify("theorem", ps, paths=("jet", "qmc", "closed"))
    assert rep.paths["jet"].status == "inadmissible"
    assert rep.paths["qmc"].status == "inadmissible"
    assert rep.paths["closed"].status == "ok"


_QMC_ON_POSITIVE_A = (
    "k is not a non-negative integer and a is on the positive real axis: the "
    "coupling log vanishes inside the domain, where S^k has a pole or branch "
    "point without a principal-value meaning"
)


@pytest.mark.parametrize(
    ("case", "pins", "path", "detail"),
    [
        ("theorem", {"k": 0.5}, "jet", "jet paths need integer k in [0, 10]"),
        ("theorem", {"k": 11}, "jet", "jet paths need integer k in [0, 10]"),
        ("theorem", {"k": -1}, "moment", "jet paths need integer k in [0, 10]"),
        ("theorem", {"k": -1, "a": -2}, "tensor", "tensor path needs integer k >= 0"),
        ("theorem", {"m": 0.4 + 0.1j}, "tensor", "tensor and qmc paths need real strip parameters"),
        ("theorem", {"m": 0.4 + 0.1j}, "qmc", "tensor and qmc paths need real strip parameters"),
        ("theorem", {"k": 0.5}, "qmc", _QMC_ON_POSITIVE_A),
        ("theorem", {}, "special", "the general case has no separate elementary form"),
        ("degenerate", {}, "limit", "no limit family for this case"),
    ],
    ids=[
        "jet-k-half",
        "jet-k-11",
        "moment-k-negative",
        "tensor-k-negative",
        "tensor-complex-strip",
        "qmc-complex-strip",
        "qmc-positive-a",
        "special-general-case",
        "limit-no-family",
    ],
)
def test_inadmissible_detail(case, pins, path, detail):
    rep = engine.verify(case, REFERENCE.replace(**pins), paths=(path, "closed"))
    assert rep.paths[path].status == "inadmissible"
    assert rep.paths[path].detail == detail
    assert rep.paths["closed"].status == "ok"


def test_direct_paths_share_one_integrand_per_call(monkeypatch):
    built = []
    integrand = engine.Integrand6D
    monkeypatch.setattr(engine, "Integrand6D", lambda ps: built.append(ps) or integrand(ps))
    direct, spec = ("tensor", "qmc", "closed"), QmcSpec(count=1 << 10)
    for calls in (1, 2):  # each call builds its own
        rep = engine.verify("theorem", REFERENCE, paths=direct, qmc_spec=spec)
        assert [rep.paths[p].status for p in direct] == ["ok"] * 3
        assert len(built) == calls
    # A complex strip is refused on both paths, in one call, and neither
    # builds an integrand.
    rep = engine.verify("theorem", REFERENCE.replace(m=0.4 + 0.1j), paths=direct, qmc_spec=spec)
    assert [(rep.paths[p].status, rep.paths[p].detail) for p in direct[:2]] == [
        ("inadmissible", "tensor and qmc paths need real strip parameters")
    ] * 2
    assert len(built) == 2


def test_limit_case_without_pinned_k_is_inadmissible():
    # The limit path extrapolates to the pinned k, so a case without one has
    # no limit point.
    case = dataclasses.replace(engine.catalog_case("log2_limit"), pins={"m": 1.0, "a": 1.0})
    rep = engine.verify(case, REFERENCE, paths=("limit", "special"))
    assert rep.paths["limit"].status == "inadmissible"
    assert rep.paths["limit"].detail == "the limit path needs a pinned k"


def test_path_functions_raise_inadmissible():
    with pytest.raises(InadmissibleError, match="jet paths"):
        engine.lhs_jet(REFERENCE.replace(k=0.5))
    with pytest.raises(InadmissibleError, match="jet paths"):
        engine.lhs_moment_expansion(REFERENCE.replace(k=11))
    with pytest.raises(InadmissibleError, match="no limit family"):
        engine.rhs_limit_full("theorem", REFERENCE)


_STRIP = ("m", "u", "v", "mu", "nu")
_README = Path(__file__).resolve().parent.parent / "README.md"


def _admission_draw(rng, case):
    """One valid call of ``case`` on every path, as (ps, second, report): k
    an integer in [0, 10], negative, above 10, or 5e-13 or 2e-12 from one,
    real or complex; a on or off the positive axis (an alt-form Re a = 1/2
    maps onto it); now and then one strip parameter complex, by 0.1, 2e-12
    or 5e-13, either side of the 1e-12 tolerance."""
    while True:
        k = rng.choice((
            float(rng.randint(0, 10)),
            float(rng.randint(-4, -1)),
            float(rng.randint(11, 14)),
            complex(rng.randint(0, 10) + rng.choice((5e-13, 2e-12)), rng.choice((0.0, 5e-13, 2e-12))),
            rng.uniform(-3.0, 6.0),
            complex(rng.uniform(-2.0, 4.0), rng.uniform(-1.0, 1.0)),
        ))
        if case.alt_form:
            a = rng.choice((0.5, complex(0.5, rng.uniform(-1, 1)), complex(rng.uniform(0.05, 1), rng.uniform(-1, 1))))
        else:
            a = rng.choice((rng.uniform(0.2, 3.0), -rng.uniform(0.2, 3.0), complex(rng.uniform(-2, 2), rng.uniform(-2, 2))))
        ps = ParameterSet(
            k=k,
            a=a,
            m=rng.uniform(0.05, 0.95),
            u=rng.uniform(-2.0, 0.95),
            v=rng.uniform(0.05, 2.5),
            mu=rng.uniform(-2.0, 0.95),
            nu=rng.uniform(0.05, 2.5),
        )
        if rng.random() < 0.2:
            name = rng.choice(_STRIP)
            ps = ps.replace(**{name: getattr(ps, name) + rng.choice((0.1j, 2e-12j, 5e-13j))})
        second = rng.uniform(0.05, 0.95) if case.needs_second_exponent and case.second_exponent is None else None
        report = engine.verify(case, ps, paths=engine.PATH_NAMES, second=second, qmc_spec=QmcSpec(count=1 << 10))
        if report.verdict != "invalid_parameters":
            return ps, second, report


def _expected_refusals(case, thm) -> dict:
    """Each path's refusal at the general-identity parameters ``thm``, as
    README's table states it, written apart from the predicates."""
    kk = round(thm.k.real)
    whole = max(abs(thm.k.imag), abs(thm.k.real - kk)) <= 1e-12
    real_strip = max(abs(getattr(thm, n).imag) for n in _STRIP) < 1e-12
    strip = None if real_strip else "tensor and qmc paths need real strip parameters"
    jet = None if whole and 0 <= kk <= 10 else "jet paths need integer k in [0, 10]"
    on_axis = abs(thm.a.imag) < 1e-12 and thm.a.real > 0
    return {
        "jet": jet,
        "moment": jet,
        "tensor": strip or (None if whole and kk >= 0 else "tensor path needs integer k >= 0"),
        "qmc": strip or (_QMC_ON_POSITIVE_A if on_axis and not (whole and kk >= 0) else None),
        "closed": None,
        "special": None if case.special else "the general case has no separate elementary form",
        "limit": (
            "no limit family for this case" if case.limit is None
            else None if "k" in case.pins else "the limit path needs a pinned k"
        ),
    }


class _PastTheGuard(Exception):
    """Raised by a patched rule builder: the path got past its guard."""


def _refusal_raised(fn, *args):
    """The message of the InadmissibleError ``fn(*args)`` raises, else None."""
    try:
        fn(*args)
    except InadmissibleError as exc:
        return str(exc)
    except (_PastTheGuard, SixfoldError, ArithmeticError):
        pass
    return None


def test_admission_predicates_agree_with_verify_and_the_guards(monkeypatch):
    # 300 seeded calls over every case, and log2_limit with k unpinned: each
    # path's admit, asked without building anything, gives the refusal
    # README's table states, verify reports it, and the path's public guard
    # raises it exactly when admit gives it.
    rows = _README.read_text(encoding="utf-8").split("| path | reasons `admit` gives |")[1].split("\n\n")[0]
    table = {m[0]: set(m[1:]) for m in (re.findall(r"`([^`]+)`", row) for row in rows.splitlines()[2:])}
    cases = (*engine.CATALOG, dataclasses.replace(engine.catalog_case("log2_limit"), pins={"m": 1.0, "a": 1.0}))
    rng, spec, calls = random.Random(46), QmcSpec(count=1 << 10), []
    seen = {path: set() for path in engine.PATH_NAMES}
    for i in range(300):
        case = cases[i % len(cases)]
        ps, second, report = _admission_draw(rng, case)
        call = engine.PathCall(case, report.params, engine.theorem_parameters(case, report.params), second, spec)
        reasons = {path: entry.admit(call) for path, entry in engine.PATHS.items()}
        assert "integrand" not in vars(call)
        assert reasons == _expected_refusals(case, call.thm), (case.tag, ps)
        for path, reason in reasons.items():
            result = report.paths[path]
            if reason is not None:
                assert (result.status, result.detail) == ("inadmissible", reason)
                seen[path].add(reason)
            else:
                assert result.status != "inadmissible" and "Inadmissible" not in result.detail, (path, result)
        calls.append((call, reasons))
    assert seen == table

    def past_the_guard(*args):
        raise _PastTheGuard

    monkeypatch.setattr(quad, "tanh_sinh", past_the_guard)
    monkeypatch.setattr(quad, "sobol_points", past_the_guard)
    for call, reasons in calls:
        assert _refusal_raised(engine.lhs_jet, call.thm) == reasons["jet"]
        assert _refusal_raised(engine.lhs_moment_expansion, call.thm) == reasons["moment"]
        assert _refusal_raised(engine.rhs_example, call.case, call.ps, call.second) == reasons["special"]
        assert _refusal_raised(engine.rhs_limit_full, call.case, call.ps) == reasons["limit"]
        strip = quad.strip_refusal(call.thm)
        assert _refusal_raised(quad.Integrand6D, call.thm) == strip
        if strip is None:
            f = quad.Integrand6D(call.thm)
            assert _refusal_raised(quad.integrate_6d_tensor, f) == reasons["tensor"]
            assert _refusal_raised(quad.integrate_6d_qmc, f, spec) == reasons["qmc"]
        else:
            assert reasons["tensor"] == reasons["qmc"] == strip


@pytest.mark.parametrize("a", [-2.0, 0.3 + 1.1j], ids=["negative", "complex"])
def test_tensor_runs_off_the_positive_axis(a):
    ps = ParameterSet(k=2, a=a, m=0.4, u=-0.3, v=1.2, mu=-0.1, nu=0.9)
    rep = engine.verify("theorem", ps, paths=("tensor", "closed"))
    tensor, closed = rep.paths["tensor"], rep.paths["closed"]
    assert tensor.status == "ok", tensor.detail
    error = abs(tensor.value - closed.value)
    assert error <= 1e-8 * abs(closed.value)
    assert tensor.err >= error
    assert rep.verdict == "pass"


def test_nested_unsupported_regime_stays_error():
    # |e^(2 i pi m)| > 1 for Im m < 0: the Lerch evaluator's own regime
    # limit, not a path precondition.
    rep = engine.verify("theorem", REFERENCE.replace(k=1, m=0.4 - 0.2j), paths=("jet", "closed"))
    assert rep.paths["jet"].status == "ok"
    assert rep.paths["closed"].status == "error"
    assert rep.paths["closed"].detail.startswith("UnsupportedRegimeError: |z| > 1 not supported")


_PAST_ONE = ["0<Re(m)<1 at m=n", "Re(m)<|Re(v)| at m=n", "Re(m)<|Re(nu)| at m=n", "Re(beta_p)>-1 at m=n"]


@pytest.mark.parametrize(
    ("n", "violations"),
    [
        (0.0, ["0<Re(m)<1 at m=n", "Re(beta_z)>-1 at m=n"]),
        (1.0, _PAST_ONE),
        (1.5, _PAST_ONE),
        (-0.2 + 0.1j, ["0<Re(m)<1 at m=n", "Re(beta_z)>-1 at m=n"]),
        (complex("nan"), ["finite(m) at m=n"]),
        (complex("inf"), ["finite(m) at m=n"]),
    ],
    ids=["0.0", "1.0", "1.5", "(-0.2+0.1j)", "(nan+0j)", "(inf+0j)"],
)
def test_second_exponent_outside_its_strip_is_invalid(n, violations):
    # The strip is checked with m replaced by n, on the theorem parameters.
    rep = engine.verify("difference_arctanh", ParameterSet(), second=n)
    assert rep.verdict == "invalid_parameters"
    assert rep.violations == violations


@pytest.mark.parametrize("n", [0.05, 0.95, 0.3 + 0.2j])
def test_second_exponent_inside_its_strip_passes(n):
    assert engine.verify("difference_arctanh", ParameterSet(), second=n).verdict == "pass"


def test_second_integral_outside_its_strip_is_invalid():
    # Inside 0 < Re(n) < 1, and the strip holds at m = 0.2, yet at m = 0.9
    # the second integral diverges: closed and special agree on it anyway.
    rep = engine.verify("difference_arctanh", ParameterSet(m=0.2, v=0.3, nu=0.3), second=0.9)
    assert rep.verdict == "invalid_parameters"
    assert rep.violations == ["Re(m)<|Re(v)| at m=n", "Re(m)<|Re(nu)| at m=n"]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 21: verify leaves a pinned n unchecked until perfbench's validator "
    "checks the catalog's second exponent",
)
def test_pinned_second_integral_outside_its_strip_is_invalid():
    # Re(beta_z) = -1.020 at m = n = 1/3 (analytic_sweep seed 1, call 104).
    rep = engine.verify("log3", ParameterSet(u=-0.4371, v=1.811, mu=0.2567, nu=0.6465))
    assert rep.verdict == "invalid_parameters"


@pytest.mark.parametrize(
    ("a", "verdict"),
    [
        (1.5, "invalid_parameters"),
        (-0.5, "invalid_parameters"),
        (1.2 - 0.4j, "invalid_parameters"),
        (0.0, "invalid_parameters"),
        (1.0 + 0.3j, "pass"),
        (0.999, "pass"),
        (1.0, "pass"),
    ],
)
def test_alt_form_a_outside_its_domain_is_invalid(a, verdict):
    # The alt form's Phi(e^(i pi m), -k, a) is stated for 0 < Re(a) <= 1.
    rep = engine.verify("alt_lerch", ParameterSet(k=2, a=a), paths=("jet", "closed", "special"))
    assert rep.verdict == verdict
    assert rep.violations == (["0<Re(a)<=1"] if verdict == "invalid_parameters" else [])


def test_difference_case_requires_second_exponent():
    with pytest.raises(DomainError, match="second exponent n"):
        engine.verify("difference_arctanh", ParameterSet())


@pytest.mark.parametrize("tag", [c.tag for c in engine.CATALOG if not c.needs_second_exponent])
def test_second_exponent_refused_where_no_path_reads_it(tag):
    with pytest.raises(DomainError, match=f"^case '{tag}' takes no second exponent n$"):
        engine.verify(tag, ParameterSet(), second=0.3)


def test_verify_theorem_reference_four_paths():
    rep = engine.verify(
        "theorem",
        REFERENCE,
        paths=("jet", "moment", "qmc", "closed"),
        qmc_spec=QmcSpec(count=1 << 14, shift_seed=3),
        tol=Tolerances(abs_tol=1e-9, rel_tol=1e-3),
    )
    assert rep.verdict == "pass"
    target = math.pi**2 / 2.0
    for name in ("jet", "moment", "qmc", "closed"):
        assert abs(rep.paths[name].value - target) < 1e-2 * target, name


def test_verify_qmc_and_tensor_reference():
    rep = engine.verify(
        "degenerate",
        REFERENCE,
        paths=("tensor", "qmc", "closed", "special"),
        qmc_spec=QmcSpec(count=1 << 14, shift_seed=7),
        tol=Tolerances(abs_tol=1e-9, rel_tol=1e-4),
    )
    assert rep.verdict == "pass"
    assert abs(rep.paths["special"].value - 4.9348022) < 1e-6


def test_report_serialization_roundtrip():
    rep = engine.verify(
        "apery",
        ParameterSet(k=-3.0, a=1.0, m=1.0, u=0.0, v=1.0, mu=0.0, nu=1.0),
        paths=("closed", "special", "limit"),
    )
    payload = engine.report_to_dict(rep)
    text = json.dumps(payload, sort_keys=True)
    parsed = json.loads(text)
    assert parsed["case"] == "apery"
    assert parsed["verdict"] == "pass"
    assert "times" not in parsed
    assert parsed["params"]["k"] == [-3.0, 0.0]
    timed = engine.report_to_dict(rep, include_times=True)
    assert "times" in timed
    rows = engine.report_to_csv_rows(rep)
    assert {r["path"] for r in rows} == {"closed", "special", "limit"}
    # A difference case carries its second exponent, pinned to 1/3 for log3.
    log3 = engine.report_to_dict(engine.verify("log3", ParameterSet(), paths=("closed", "special")))
    assert log3["params"]["n"] == [1 / 3, 0.0]


def test_catalog_size_and_tags():
    assert len(engine.CATALOG) == 11
    tags = {c.tag for c in engine.CATALOG}
    assert tags == {
        "theorem",
        "degenerate",
        "hurwitz_zeta_form",
        "harmonic_limit",
        "difference_arctanh",
        "log3",
        "arccoth_sqrt2",
        "alt_lerch",
        "eta_zeta_line",
        "log2_limit",
        "apery",
    }


@pytest.mark.parametrize("case", engine.CATALOG, ids=lambda c: c.tag)
def test_catalog_entry_consistent(case):
    assert ("special" in case.paths) == (case.special is not None)
    assert ("limit" in case.paths) == (case.limit is not None)
    analytic = tuple(p for p in case.paths if p not in ("tensor", "qmc"))
    second = 0.3 if case.tag == "difference_arctanh" else None
    rep = engine.verify(case, ParameterSet(), paths=analytic, second=second)
    assert rep.verdict == "pass"
    assert all(r.status == "ok" for r in rep.paths.values()), rep.paths


@pytest.mark.parametrize("tag", ["log3", "arccoth_sqrt2"])
def test_pinned_second_exponent_wins(tag):
    rep = engine.verify(tag, ParameterSet(), second=0.4)
    assert rep.verdict == "pass"
    assert rep.second_exponent == engine.catalog_case(tag).second_exponent


def test_rhs_example_general_case_has_no_elementary_form():
    with pytest.raises(InadmissibleError, match="no separate elementary form"):
        engine.rhs_example("theorem", REFERENCE)


def test_alt_lerch_mapping_consistency():
    # the shifted form at (m, a) maps onto the general identity
    case = engine.catalog_case("alt_lerch")
    ps = ParameterSet(k=2.0, a=0.7, m=0.8, u=0.0, v=1.0, mu=0.0, nu=1.0)
    special = engine.rhs_example(case, ps)
    closed = engine.rhs_theorem(engine.theorem_parameters(case, ps))
    assert abs(special - closed) <= 1e-10 * (1.0 + abs(closed))


def test_hurwitz_zeta_form_consistency():
    case = engine.catalog_case("hurwitz_zeta_form")
    for k in (0.0, 1.0, 2.5):
        ps = ParameterSet(k=k, a=1.3, m=0.5, u=-0.2, v=1.1, mu=0.1, nu=0.9)
        special = engine.rhs_example(case, ps)
        closed = engine.rhs_theorem(ps)
        assert abs(special - closed) <= 1e-9 * (1.0 + abs(closed)), k


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3: hurwitz_zeta drifts left of Re s = -10 with no signal, and "
    "closed and special share it, so both agree on a wrong value and the verdict passes",
)
@pytest.mark.parametrize("k", [15.4, 30.4])
def test_hurwitz_zeta_form_pass_only_on_true_values(k):
    # Defaults a = 1, u = mu = 0 put V = 1/2 and the prefactor at
    # i^(k-1) pi^(k+2) e^(i pi/2) 2^k; truth from 40-digit mpmath.
    mpmath = pytest.importorskip("mpmath")
    ps = ParameterSet(k=k)
    rep = engine.verify("hurwitz_zeta_form", ps, paths=("closed", "special"))
    with mpmath.workdps(40):
        kk = mpmath.mpf(k)
        pref = mpmath.expj((kk - 1) * mpmath.pi / 2) * mpmath.pi ** (kk + 2) * mpmath.expj(mpmath.pi / 2) * 2**kk
        truth = complex(pref * mpmath.lerchphi(-1, -kk, mpmath.mpf(1) / 2))
    if rep.verdict == "pass":
        for name, r in rep.paths.items():
            if r.status == "ok":
                assert abs(r.value - truth) <= 1e-10 * abs(truth), (name, r.value, truth)


@pytest.mark.parametrize(
    "tag, params",
    [
        # analytic_sweep seed 3, call 3256: jet|moment reads 2.4e-9, under
        # rel_tol 1e-8 only when the factor logs are summed before one exp.
        (
            "theorem",
            dict(k=6, a=0.859225542189932 - 2.324051487958175j, m=0.2613105607436432,
                 u=-0.8746574619022411, v=2.1217147623821853, mu=0.01696078856969896,
                 nu=0.33108950044571633),
        ),
        # analytic_sweep seed 3, call 2884: jet|moment reads 7.2e-9.
        (
            "hurwitz_zeta_form",
            dict(k=5, a=1.3862600457342664, m=0.36655500163898386, u=-1.9413397824314975,
                 v=1.0029070974300365, mu=-0.9929366006666676, nu=2.4810993987367786),
        ),
        # The calls below sit near Re beta = -1, where the moment path read
        # jet|moment 1.3e-8 to 6.8e-5 while it evaluated the Gamma factors
        # that cancel.  analytic_sweep seed 3, call 1166: Re beta_p + 1 = 2.1e-3.
        (
            "theorem",
            dict(k=5, a=-0.6050013294690896, m=0.6033422916054085, u=-0.7667532333612825,
                 v=0.9829720714728922, mu=0.7034754985519744, nu=0.6890052210530284),
        ),
        # Seed 2, call 1669: Re beta_p + 1 = 2.4e-4, jet|moment read 6.8e-5.
        (
            "eta_zeta_line",
            dict(k=5, m=0.2931849934299605, u=-0.5491274010136582, v=1.855298126383771,
                 mu=-0.08115871043667289, nu=1.5806867005330587),
        ),
        # Seed 4, call 1630: Re beta_z + 1 = 5.5e-4, jet|moment read 4.3e-7.
        (
            "hurwitz_zeta_form",
            dict(k=4, a=0.3884344344517941, m=0.6182828511966518, u=-0.5009986508382622,
                 v=1.9998911736416742, mu=-1.5465900064293763, nu=1.5871247797754393),
        ),
        # Seed 4, call 2306: Re beta_p + 1 = 1.2e-2, no advisory, jet|moment read 1.5e-7.
        (
            "alt_lerch",
            dict(k=6, a=0.4850899933369885, m=0.8876442754388745, u=0.02691377669935724,
                 v=0.8917874269564948, mu=0.1849657642788558, nu=1.3459870400692644),
        ),
        # Seed 6, calls 2123 and 2354: jet|moment read 4.2e-8 and 1.3e-8.
        (
            "theorem",
            dict(k=4, a=-0.8406861125809431, m=0.13250094662171222, u=0.3446163595640521,
                 v=0.7840317544430505, mu=-0.35358070496272176, nu=2.1624895992043793),
        ),
        (
            "theorem",
            dict(k=3, a=-2.9298714419388365, m=0.49273512095273475, u=-1.8865450180718006,
                 v=2.436900868272608, mu=-0.027979400600349313, nu=1.530103225661501),
        ),
    ],
)
def test_moment_path_sums_one_log_jet(tag, params):
    rep = engine.verify(tag, ParameterSet(**params), paths=("jet", "moment", "closed"))
    assert rep.verdict == "pass", rep.diffs


def _near_pole_strips(rng, count):
    """Valid strips with Re beta_z + 1 or Re beta_p + 1 in (1e-3, 3e-2),
    integer k in 4..10 and a of either sign."""
    out = []
    while len(out) < count:
        m, u, mu = rng.uniform(0.05, 0.95), rng.uniform(-2.0, 0.95), rng.uniform(-2.0, 0.95)
        v, nu = rng.uniform(0.05, 2.5), rng.uniform(0.05, 2.5)
        margin = math.exp(rng.uniform(math.log(1e-3), math.log(3e-2)))
        if rng.random() < 0.5:
            v = m - u + 1.0 - 2.0 * margin  # beta_z + 1 = margin
        else:
            nu = 2.0 - mu - m - 2.0 * margin  # beta_p + 1 = margin
        a = rng.choice((1.0, -1.0)) * math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        ps = ParameterSet(k=rng.randint(4, 10), a=a, m=m, u=u, v=v, mu=mu, nu=nu)
        if not validate_parameters(ps):
            out.append(ps)
    return out


def test_moment_path_exact_near_the_gamma_poles():
    # The jets of the Gamma factors at beta + 1 grow like 1/(beta+1)^j;
    # evaluated and cancelled, their rounding read up to 6e8 relative here.
    for ps in _near_pole_strips(random.Random(53), 300):
        jet, moment = engine.lhs_jet(ps), engine.lhs_moment_expansion(ps)
        assert abs(moment - jet) <= 1e-12 * abs(jet), ps


@pytest.mark.parametrize("index", range(4))
def test_a_shifted_exponent_reaches_the_moment_path(monkeypatch, index):
    # A beta moved by 0.01 no longer matches its Mellin factor, so both are
    # evaluated and the defect shows.
    real = engine.derive_exponents

    def shifted(ps):
        exq = real(ps)
        return exq._replace(**{exq._fields[index]: exq[index] + 0.01})

    monkeypatch.setattr(engine, "derive_exponents", shifted)
    ps = ParameterSet(k=3, a=1.5, m=0.4, u=-0.3, v=1.2, mu=-0.1, nu=0.9)
    rep = engine.verify("theorem", ps, paths=("jet", "moment", "closed"))
    assert rep.verdict == "fail"
    assert rep.diffs["jet|moment"]["rel"] > 1e-3


def test_moment_path_evaluates_only_the_uncancelled_factors(monkeypatch):
    # Real and complex strips whose orders and degrees reach 1e6: every Gamma
    # moment pairs with its Mellin factor, and only Gamma(m + w) and
    # Gamma(1 - m - w) are evaluated.
    rng = random.Random(29)

    def size():
        return 10.0 ** rng.uniform(-2.0, 6.0)

    def imag():
        return rng.choice((0.0, rng.uniform(-1.0, 1.0) * size()))

    seen = []
    real = engine.jet_of_log_gamma
    monkeypatch.setattr(engine, "jet_of_log_gamma", lambda z0, order: seen.append(z0) or real(z0, order))
    done = 0
    while done < 2000:
        m = complex(rng.uniform(0.01, 0.99), rng.choice((0.0, rng.uniform(-1.0, 1.0))))
        u, mu = 1.0 - size(), 1.0 - size()
        # Re v in (Re m, Re(m - u) + 1) and Re nu in (Re m, 2 - Re(mu + m)):
        # Re beta_z and Re beta_p above -1.
        v = m.real + rng.random() * (1.0 - u)
        nu = m.real + rng.random() * (2.0 - mu - 2.0 * m.real)
        ps = ParameterSet(k=rng.randint(0, 3), a=-1.5, m=m, u=complex(u, imag()), v=complex(v, imag()),
                          mu=complex(mu, imag()), nu=complex(nu, imag()))
        if validate_parameters(ps):
            continue
        seen.clear()
        engine.lhs_moment_expansion(ps)
        assert seen == [ps.m, 1.0 - ps.m], ps
        done += 1


@pytest.mark.parametrize(
    "call",
    [
        engine.lhs_jet,
        engine.lhs_moment_expansion,
        engine.rhs_theorem,
        quad.Integrand6D,
        lambda ps: engine.rhs_example("hurwitz_zeta_form", ps),
        lambda ps: engine.rhs_example("harmonic_limit", ps),
        lambda ps: engine.rhs_limit_full("harmonic_limit", ps),
    ],
    ids=["jet", "moment", "closed", "integrand", "hurwitz_zeta_form", "harmonic_limit", "limit"],
)
def test_zero_a_is_a_domain_error_on_every_path_function(call):
    # Each reads log a as ParameterSet.log_a, which refuses a = 0.
    with pytest.raises(DomainError, match="a must be non-zero"):
        call(REFERENCE.replace(k=2, a=0))


@pytest.mark.parametrize("a", [1.5, -1.5, 1.5 + 0.5j], ids=["positive", "negative", "complex"])
def test_every_path_reads_one_integer_k(a):
    # Either side of the 1e-12 integer tolerance, real and imaginary: each
    # admission and the integrand read k as ps.k_int, and within it the
    # jet, moment and tensor values are those of the integer.
    base = ParameterSet(k=2, a=a, m=0.3, u=-0.4, v=1.35, mu=0.2, nu=0.85)
    on_axis = a == 1.5
    exact = (engine.lhs_jet(base), engine.lhs_moment_expansion(base), quad.integrate_6d_tensor(quad.Integrand6D(base)))
    for offset in (0.9e-12, -0.9e-12, 0.9e-12j, -0.9e-12j, 1.1e-12, -1.1e-12, 1.1e-12j, -1.1e-12j):
        ps = base.replace(k=2 + offset)
        kk = ps.k_int
        assert kk == (2 if abs(offset) < 1e-12 else None), offset
        assert quad.Integrand6D(ps).k_int == kk
        assert (engine.jet_refusal(ps) is None) == (kk is not None)
        assert (quad.tensor_refusal(ps) is None) == (kk is not None)
        assert (quad.qmc_refusal(ps) is None) == (kk is not None or not on_axis)
        if kk is not None:
            got = (engine.lhs_jet(ps), engine.lhs_moment_expansion(ps), quad.integrate_6d_tensor(quad.Integrand6D(ps)))
            assert repr(got) == repr(exact), offset
