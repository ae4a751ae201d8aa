"""The benchmark's side of the boundary to the program under test.

Loads ``sixfold`` from the checkout's ``src`` tree (never from an installed
copy), turns generated input records into ``verify`` calls, and checks the
reports that come back.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Plan for warm-up calls: the smallest count QmcSpec accepts, so set-up
# exercises every code path without paying for a full estimate.
WARMUP_QMC_COUNT = 1 << 10


class MissingProgram(RuntimeError):
    """The checkout holds no sixfold sources to benchmark."""


def pin_blas() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def load():
    """Import ``sixfold`` from ``<checkout>/src``."""
    if not (SRC / "sixfold" / "__init__.py").is_file():
        raise MissingProgram(f"no sixfold package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sixfold

    if not Path(sixfold.__file__).resolve().is_relative_to(SRC):
        raise MissingProgram(f"sixfold imported from {sixfold.__file__}, not from {SRC}")
    return sixfold


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def params_of(sixfold, params: dict):
    return sixfold.ParameterSet(**{name: _c(val) for name, val in params.items()})


def validator(sixfold):
    """The strip check ``verify`` applies, on the case's mapped parameters;
    a second exponent is checked in the place of m."""

    def valid(case: str, params: dict, second) -> bool:
        entry = sixfold.catalog_case(case)
        ps = params_of(sixfold, params)
        thm = sixfold.theorem_parameters(entry, ps.replace(**entry.pins))
        if sixfold.validate_parameters(thm):
            return False
        return second is None or not sixfold.validate_parameters(thm.replace(m=_c(second)))

    return valid


def call(sixfold, record: dict, warmup: bool = False):
    """Run ``verify`` on one generated record."""
    qmc = record["qmc"]
    spec = None
    if warmup:
        spec = sixfold.QmcSpec(count=WARMUP_QMC_COUNT, shift_seed=20170)
    elif qmc is not None:
        spec = sixfold.QmcSpec(count=qmc[0], shift_seed=qmc[1])
    return sixfold.verify(
        record["case"],
        params_of(sixfold, record["params"]),
        paths=None if record["paths"] is None else tuple(record["paths"]),
        second=None if record["second"] is None else _c(record["second"]),
        qmc_spec=spec,
    )


def warmup_records(records: list[dict]) -> list[dict]:
    """The first record of every (case, path set) among ``records``."""
    seen, out = set(), []
    for rec in records:
        key = (rec["case"], None if rec["paths"] is None else tuple(rec["paths"]))
        if key not in seen:
            seen.add(key)
            out.append(rec)
    return out


def _hex(x) -> tuple[str, ...] | None:
    if x is None:
        return None
    if isinstance(x, complex):
        return (x.real.hex(), x.imag.hex())
    return (float(x).hex(),)


def fingerprint(report) -> tuple:
    """Everything a report says except wall times, with floats in hex, so
    equal fingerprints mean bit-identical results."""
    paths = tuple(
        (name, r.status, _hex(r.value), _hex(r.err), r.detail) for name, r in report.paths.items()
    )
    diffs = tuple(
        (pair, tuple((k, _hex(v)) for k, v in sorted(d.items())))
        for pair, d in sorted(report.diffs.items())
    )
    return (report.case, report.verdict, paths, diffs, tuple(report.violations), tuple(report.warnings))


def failed(report) -> bool:
    """A call fails when its verdict is not "pass" or any path errored."""
    return report.verdict != "pass" or any(r.status == "error" for r in report.paths.values())


def problems(report, requested) -> list[str]:
    """Output defects the benchmark can check without trusting the program:
    every requested path is reported, computed values are finite, and a
    "pass" is backed by the values, tolerances and error estimates."""
    out = []
    if requested is not None and set(report.paths) != set(requested):
        out.append(f"paths reported {sorted(report.paths)} != requested {sorted(requested)}")
    if report.verdict == "invalid_parameters":
        out.append(f"generated input rejected: {report.violations}")
    ok = [(n, r) for n, r in report.paths.items() if r.status == "ok"]
    for name, r in ok:
        if r.value is None or not (math.isfinite(r.value.real) and math.isfinite(r.value.imag)):
            out.append(f"path {name} is ok with value {r.value!r}")
    if report.verdict == "pass" and not out:
        tol = report.tolerances
        for i, (na, ra) in enumerate(ok):
            for nb, rb in ok[i + 1 :]:
                d = abs(ra.value - rb.value)
                scale = max(abs(ra.value), abs(rb.value))
                slack = 3.0 * ((ra.err or 0.0) + (rb.err or 0.0))
                if not d <= tol.abs_tol + tol.rel_tol * scale + slack:
                    out.append(f"verdict pass but {na}|{nb} differ by {d:.3e}")
    return out


def worst_rel_diff(report) -> float:
    rels = [d["rel"] for d in report.diffs.values()]
    return max(rels) if rels else 0.0


def err_rel(report) -> list[float]:
    """err / |value| of the qmc and tensor paths that computed a value."""
    out = []
    for name in ("qmc", "tensor"):
        r = report.paths.get(name)
        if r is not None and r.status == "ok" and r.err is not None and r.value:
            out.append(r.err / abs(r.value))
    return out
