"""Tests of the benchmark itself: seeded inputs, transparent tracing, and
agreement between what ``run.py`` prints and ``BENCHMARK.json``."""

import importlib.util
import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import bench_inputs
import bench_program
from bench_program import ROOT
from bench_trace import FUNCTIONS, INTEGRAND_METHODS, Tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def sixfold():
    return bench_program.load()


@pytest.fixture(scope="module")
def run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_same_seed_same_inputs(sixfold, workload):
    valid = bench_program.validator(sixfold)
    count = 2 * bench_inputs.round_shapes(workload)
    first = bench_inputs.take(workload, 7, valid, count)
    assert bench_inputs.take(workload, 7, valid, count) == first
    assert bench_inputs.take(workload, 8, valid, count) != first
    assert json.loads(json.dumps(first)) == first
    for rec in first:
        assert valid(rec["case"], rec["params"], rec["second"])


def _sample_records(sixfold):
    valid = bench_program.validator(sixfold)
    return (
        bench_inputs.take("analytic_sweep", 3, valid, bench_inputs.round_shapes("analytic_sweep"))
        + bench_inputs.take("direct_6d", 3, valid, 2)
        + bench_inputs.take("qmc_limit", 3, valid, bench_inputs.round_shapes("qmc_limit"))
    )


def test_tracer_is_transparent(sixfold):
    records = _sample_records(sixfold)
    before = [bench_program.fingerprint(bench_program.call(sixfold, r, warmup=True)) for r in records]
    originals = {(m, a): getattr(sys.modules[f"sixfold.{m}"], a) for m, a, _ in FUNCTIONS}
    tracer = Tracer()
    with tracer:
        assert sixfold.engine.integrate_6d_qmc is not originals[("quad", "integrate_6d_qmc")]
        assert sixfold.lerch.tanh_sinh is not originals[("quad", "tanh_sinh")]
        assert sixfold.verify is not originals[("engine", "verify")]
        traced = [bench_program.fingerprint(bench_program.call(sixfold, r, warmup=True)) for r in records]
    assert traced == before
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[f"sixfold.{mod}"], attr) is fn
    for meth in INTEGRAND_METHODS:
        assert not hasattr(sixfold.Integrand6D.__dict__[meth], "__wrapped__")
    assert sixfold.engine.integrate_6d_qmc is originals[("quad", "integrate_6d_qmc")]

    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["engine.verify"] * len(records)
    for name, t0, t1, parent, _ in tracer.spans:
        assert t0 <= t1
        if parent >= 0:
            assert tracer.spans[parent][1] <= t0 and t1 <= tracer.spans[parent][2]
    summary = tracer.summary()
    for row in summary.values():
        assert -1e-9 <= row["self"] <= row["incl"] + 1e-9
    assert summary["quad.integrate_6d_qmc"]["work"] > 0
    assert summary["legendre.hyp2f1_array"]["work"] > 0


def test_tail_percentile(run_module):
    assert run_module.tail([1.0] * 19) is None
    pct, value = run_module.tail([float(i) for i in range(100)])
    assert pct == 90.0 and value == 89.0


@pytest.mark.parametrize("workload", bench_inputs.WORKLOADS)
def test_timed_run_makes_whole_rounds(run_module, workload):
    shapes = bench_inputs.round_shapes(workload)
    for seconds in (0.01, 1.0, 30.0):
        calls = run_module.planned_calls(workload, seconds)
        assert calls >= shapes and calls % shapes == 0
    assert run_module.planned_calls(workload, 60.0) > run_module.planned_calls(workload, 1.0)


@pytest.mark.parametrize("trace", (0, 1))
def test_printed_metrics_match_benchmark_json(run_module, monkeypatch, tmp_path, capsys, trace):
    monkeypatch.setattr(run_module, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run_module, "TRACE_ROUNDS", {"analytic_sweep": 1})
    monkeypatch.setattr(run_module, "OUT_DIR", tmp_path)
    for var in bench_program.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")  # main() pins them; restore them afterwards
    argv = ["--workload", "analytic_sweep", "--seed", "5", "--seconds", "0.3", "--trace", str(trace)]
    assert run_module.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("perfbench: ") for line in lines[:-1])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if trace:
        assert list(tmp_path.glob("spans-analytic_sweep-seed5.tsv"))


def test_benchmark_json_names_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_inputs.WORKLOADS)
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert SPEC["paths"] == ["perfbench"] and SPEC["command"][1].startswith("perfbench/")


def test_refuses_checkout_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "analytic_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
