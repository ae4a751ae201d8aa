"""Independence of the analytic paths, as a tested property of the catalog.

A pass says that two routes agree; it says the identity holds only when the
routes share no numerical core, since a defect in a shared core moves both
alike.  A recorder wraps twelve cores in every ``sixfold`` module that holds
them and charges each call to the ``engine.PATHS`` entry running, over a
seeded sample of every case and kind of k on the analytic paths.  Every pass
must have a computed pair of paths with disjoint core sets, except on the
rows of ``SHARED_CORE_ROWS``, each of which names the ROADMAP item that
removes it.  README's path-independence table is the recorder's summary.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
import re
import sys
from pathlib import Path

import pytest

from sixfold import engine
from sixfold.core import ParameterSet, nearest_int

CORES = (
    "hurwitz_zeta",
    "polygamma",
    "log_gamma",
    "gamma",
    "_abel_plana_phi",
    "_laplace_phi",
    "lerch_apostol",
    "closed_form_jet",
    "jet_of_log_gamma",
    "kernel_factor_array",
    "_tensor_sum",
    "_qmc_share",
)
ANALYTIC_PATHS = ("jet", "moment", "closed", "special", "limit")
K_KINDS = ("integer", "real", "complex")
# Rows whose passes rest on paths that share a core: case -> (kinds of k,
# the ROADMAP item that removes the row).  apery's k is pinned at -3.
SHARED_CORE_ROWS = {
    "hurwitz_zeta_form": (("real", "complex"), "items 16 and 6"),
    "alt_lerch": (("real", "complex"), "items 16 and 6"),
    "eta_zeta_line": (("real", "complex"), "items 16 and 6"),
    "apery": (("integer",), "item 16"),
}
# The benchmark's analytic rotation: k and a rotate their kind on the cases
# that leave them free; the general case keeps integer k, so that it has a
# second analytic path to compare its closed form against.
_FREE_K = ("hurwitz_zeta_form", "alt_lerch", "eta_zeta_line")
_FREE_A = ("theorem", "degenerate", "hurwitz_zeta_form")
_ROUNDS = 12
_README = Path(__file__).resolve().parent.parent / "README.md"


def _k_kind(k: complex) -> str:
    if nearest_int(k, 1e-12) is not None:
        return "integer"
    return "real" if k.imag == 0 else "complex"


def _draw(rng: random.Random, case: str, kind: int) -> tuple[ParameterSet, float | None]:
    params = {
        "m": rng.uniform(0.05, 0.95),
        "u": rng.uniform(-2.0, 0.95),
        "v": rng.uniform(0.05, 2.5),
        "mu": rng.uniform(-2.0, 0.95),
        "nu": rng.uniform(0.05, 2.5),
    }
    if case == "theorem" or case in _FREE_K and kind == 0:
        params["k"] = float(rng.randint(0, 6))
    elif case in _FREE_K:
        k = rng.uniform(0.0, 6.0)
        params["k"] = k if kind == 1 else complex(k, rng.uniform(-1.0, 1.0))
    if case in _FREE_A:
        r = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        params["a"] = (r, -r, cmath.rect(r, rng.uniform(-math.pi, math.pi)))[kind]
    elif case == "alt_lerch":
        re_a = rng.uniform(0.05, 1.0)
        params["a"] = complex(re_a, rng.uniform(-1.0, 1.0)) if kind == 2 else re_a
    second = rng.uniform(0.05, 0.95) if case == "difference_arctanh" else None
    return ParameterSet(**params), second


@pytest.fixture(scope="module")
def recorded():
    """(case, kind of k, report, {path: cores reached}) for every sampled
    call that ``verify`` finds valid."""
    running: list[str | None] = [None]
    reached: dict[str, set[str]] = {}

    def charge(name, fn):
        def core(*args, **kwargs):
            if running[0] is not None:
                reached.setdefault(running[0], set()).add(name)
            return fn(*args, **kwargs)

        return core

    def run_as(path, entry):
        def run(call):
            running[0] = path
            try:
                return entry.run(call)
            finally:
                running[0] = None

        return entry._replace(run=run)

    modules = [m for n, m in list(sys.modules.items()) if n == "sixfold" or n.startswith("sixfold.")]
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for name in CORES:
            # The function object of the module that defines the core.
            original = next(
                f for m in modules if getattr(f := getattr(m, name, None), "__module__", None) == m.__name__
            )
            for module in modules:
                if getattr(module, name, None) is original:
                    mp.setattr(module, name, charge(name, original))
        for path in ANALYTIC_PATHS:
            mp.setitem(engine.PATHS, path, run_as(path, engine.PATHS[path]))
        rng = random.Random(19)
        for rnd in range(_ROUNDS):
            for slot, case in enumerate(entry.tag for entry in engine.CATALOG):
                while True:
                    ps, second = _draw(rng, case, (rnd + slot) % 3)
                    reached.clear()
                    report = engine.verify(case, ps, paths=ANALYTIC_PATHS, second=second)
                    if report.verdict != "invalid_parameters":
                        break
                calls.append((case, _k_kind(report.params.k), report, dict(reached)))
    return calls


def _cores(reached: dict[str, set[str]], path: str) -> set[str]:
    return reached.get(path, set())


def test_every_pass_has_an_independent_pair(recorded):
    shared = set()
    for case, kind, report, reached in recorded:
        if report.verdict != "pass":
            continue
        computed = [p for p, r in report.paths.items() if r.status == "ok"]
        assert len(computed) >= 2, (case, kind, report.paths)
        if not any(
            not _cores(reached, p) & _cores(reached, q) for p, q in itertools.combinations(computed, 2)
        ):
            shared.add((case, kind))
    expected = {(case, kind) for case, (kinds, _) in SHARED_CORE_ROWS.items() for kind in kinds}
    assert shared == expected


def _table(recorded) -> list[str]:
    rows: dict[tuple[str, str], dict[str, set[str]]] = {}
    for case, kind, report, reached in recorded:
        row = rows.setdefault((case, kind), {})
        for path, result in report.paths.items():
            if result.status == "ok":
                row.setdefault(path, set()).update(_cores(reached, path))
    order = {tag: i for i, tag in enumerate(entry.tag for entry in engine.CATALOG)}
    lines = ["| case | k | computed paths | cores each reaches |", "|---|---|---|---|"]
    for case, kind in sorted(rows, key=lambda ck: (order[ck[0]], K_KINDS.index(ck[1]))):
        paths = [p for p in ANALYTIC_PATHS if p in rows[case, kind]]
        cores = "; ".join(
            f"{p}: " + (", ".join(f"`{c}`" for c in CORES if c in rows[case, kind][p]) or "none")
            for p in paths
        )
        lines.append(f"| `{case}` | {kind} | {', '.join(paths)} | {cores} |")
    return lines


def test_readme_table_matches_the_recorder(recorded):
    text = _README.read_text(encoding="utf-8")
    section = text.split("## Path independence", 1)[1]
    table = re.findall(r"^\|.*\|$", section.split("\n\n## ", 1)[0], flags=re.M)
    assert table == _table(recorded)


def test_judge_reproduces_every_recorded_verdict(recorded):
    # The verdict is a function of the path results alone: judge, given a
    # report's own results, returns its verdict and its pair rows, in order.
    # Each row's bound is the documented one, recomputed here from the
    # report's values and errs, and the verdict is "pass" exactly when every
    # margin is at most 1, or, below two "ok" paths, when none erred.
    for case, kind, report, _ in recorded:
        decision = engine.judge(report.paths, report.tolerances)
        assert (decision, decision.verdict) == (report.decision, report.verdict), (case, kind)
        ok = {p: r for p, r in report.paths.items() if r.status == "ok"}
        tol = report.tolerances
        for row in decision.pairs:
            a, b = (ok[p] for p in row.name.split("|"))
            scale = max(abs(a.value), abs(b.value))
            assert row.bound == tol.abs_tol + tol.rel_tol * scale + 3.0 * ((a.err or 0.0) + (b.err or 0.0)), row
        if len(ok) < 2:
            expected = all(r.status != "error" for r in report.paths.values())
        else:
            expected = all(row.margin <= 1.0 for row in decision.pairs)
        assert (report.verdict == "pass") == expected, (case, kind)
