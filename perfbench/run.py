"""sixfold benchmark: closed-loop ``verify`` calls on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analytic_sweep --seed 1 --seconds 20 --trace 0

One process, one caller: each ``verify`` call starts when the previous one
returns.  ``--trace 0`` measures the end-to-end metrics over a fixed number
of calls, sized from ``--seconds`` so that the run lasts about that long on
the reference machine (set-up is timed separately, in fresh interpreters).  ``--trace 1`` replays
a fixed input set twice per input, untraced and traced, checks that both
give bit-identical reports, and derives the per-layer metrics from the
spans; the spans are written under ``.perfbench/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import bench_inputs
import bench_program
from bench_program import ROOT, MissingProgram

HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 11
# Calls per second of each workload on the reference machine (README.md,
# Bounds).  A timed run makes seconds x rate calls, rounded up to whole
# rounds, so a seed and --seconds fix the inputs, hence ``attempted`` and
# ``failed``, whatever the speed of the machine or of the commit measured.
CALL_RATE = {"analytic_sweep": 650.0, "direct_6d": 1.25, "qmc_limit": 0.29}
# A timed run that takes longer than this many times --seconds stops early
# (and says so), so a much slower commit still ends in time.
OVERRUN = 3.0
# Rounds replayed by a traced run; fixed so its counts are exact and
# comparable between commits for the same seed.
TRACE_ROUNDS = {"analytic_sweep": 200, "direct_6d": 1, "qmc_limit": 1}
TAIL_BEYOND = 10

# verify_p50_ms is logged but not bounded here: on analytic_sweep its
# run-to-run spread reached a quarter of its median on a 2-vCPU VM whose
# clock speed drifts, more than the largest bound a metric may have.
END_TO_END = {
    "setup_s": "s",
    "verify_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PATHS = ("jet", "moment", "tensor", "qmc", "closed", "special", "limit")
LERCH_CALLS = {
    "apostol": "lerch.lerch_apostol",
    "series": "lerch.lerch_series",
    "minus_one_split": "lerch.lerch_minus_one_split",
    "unit_circle": "lerch.lerch_unit_circle_full",
    "abel_plana": "lerch._abel_plana_phi",
}
SPECIALFN = ("log_gamma", "digamma", "polygamma", "hurwitz_zeta", "riemann_zeta")
LEGENDRE = ("kernel_factor_array", "hyp2f1_array")
RULES = ("tanh_sinh", "gauss_laguerre", "log_axis_rule")
PER_LAYER = {
    **{f"engine.path_s.{p}": "s" for p in PATHS},
    "engine.overhead_s": "s",
    **{f"lerch.calls.{k}": "count" for k in LERCH_CALLS},
    "lerch.abel_plana_s": "s",
    **{f"specialfn.{f}.{m}": u for f in SPECIALFN for m, u in (("calls", "count"), ("s", "s"))},
    "jets.closed_form_jet_s": "s",
    "jets.jet_of_gamma_s": "s",
    "quad.qmc.kernel_s": "s",
    "quad.qmc.coupling_s": "s",
    "quad.qmc.log_axes_s": "s",
    "quad.sobol_points_s": "s",
    "quad.qmc_ns_per_point": "ns",
    **{
        f"legendre.{f}.{m}": u
        for f in LEGENDRE
        for m, u in (("s", "s"), ("nodes", "count"), ("ns_per_node", "ns"))
    },
    "quad.integrate_6d_tensor_s": "s",
    **{f"quad.{f}.{m}": u for f in RULES for m, u in (("calls", "count"), ("s", "s"))},
    "trace_overhead_ratio": "ratio",
    "verify_p50_ms": "ms",
    "fail_ratio": "ratio",
    "err_rel_p50": "ratio",
}


def log(msg: str) -> None:
    print(f"perfbench: {msg}", flush=True)


def machine_info(sixfold) -> str:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (
        f"nproc={nproc} cpu={cpu!r} python={platform.python_version()} "
        f"numpy={numpy.__version__} sixfold={sixfold.__version__} "
        f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def measure_setup(warm: list[dict]) -> list[float]:
    """Set-up time of SETUP_SAMPLES fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "bench_setup.py")],
            input=json.dumps(warm),
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


class Ledger:
    """Per-call outcomes of one pass over the inputs."""

    def __init__(self, list_failures: bool = True, keep_reports: bool = True) -> None:
        self.list_failures = list_failures
        self.keep_reports = keep_reports  # off in timed runs, whose memory is measured
        self.walls: list[float] = []
        self.pass_walls: list[float] = []
        self.reports: list = []
        self.failed = 0
        self.errors: list[str] = []
        self.err_rel: list[float] = []

    def record(self, rec: dict, run) -> object:
        t0 = time.perf_counter()
        try:
            report = run(rec)
        except Exception:  # a crash is a defect of the program: count it and go on
            self.walls.append(time.perf_counter() - t0)
            if self.keep_reports:
                self.reports.append(None)
            self.failed += 1
            self.errors.append(f"verify raised on {json.dumps(rec)}:\n{traceback.format_exc()}")
            return None
        self.walls.append(time.perf_counter() - t0)
        if self.keep_reports:
            self.reports.append(report)
        for issue in bench_program.problems(report, rec["paths"]):
            self.errors.append(f"{issue} on {json.dumps(rec)}")
        self.err_rel.extend(bench_program.err_rel(report))
        if not bench_program.failed(report):
            self.pass_walls.append(self.walls[-1])
            return report
        self.failed += 1
        if self.list_failures:
            statuses = ",".join(f"{n}={r.status}" for n, r in report.paths.items())
            log(
                f"FAIL case={rec['case']} verdict={report.verdict} "
                f"params={json.dumps(rec['params'])} second={rec['second']} qmc={rec['qmc']} "
                f"paths={statuses} worst_rel_diff={bench_program.worst_rel_diff(report):.3e}"
            )
        return report


def tail(walls: list[float]) -> tuple[float, float] | None:
    """(percentile, seconds) of the highest percentile with TAIL_BEYOND
    samples beyond it; None when that would not lie above the median."""
    n = len(walls)
    if n < 2 * TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(walls)[n - TAIL_BEYOND - 1]


def planned_calls(workload: str, seconds: float) -> int:
    """Calls of a timed run: seconds x CALL_RATE, in whole rounds, at least one."""
    shapes = bench_inputs.round_shapes(workload)
    return shapes * max(1, math.ceil(seconds * CALL_RATE[workload] / shapes))


def run_untraced(sixfold, stream, calls: int, seconds: float, warm: list[dict]) -> tuple[Ledger, dict]:
    setup = measure_setup(warm)
    log(f"setup_s samples {[round(s, 4) for s in setup]}")
    ledger = Ledger(keep_reports=False)
    start = time.perf_counter()
    deadline = start + OVERRUN * seconds
    for rec in itertools.islice(stream, calls):
        if time.perf_counter() > deadline:
            log(f"STOPPED EARLY after {len(ledger.walls)} of {calls} calls: over {OVERRUN} x --seconds")
            break
        ledger.record(rec, lambda r: bench_program.call(sixfold, r))
    log(f"{len(ledger.walls)} calls planned from --seconds took {time.perf_counter() - start:.3f} s")
    # Latency and throughput are those of passing calls: a failed call has
    # no verdict to wait for, and a failure often ends a path early, so
    # mixing them in would make the figures swing with the failure count,
    # which the result line reports on its own.  All calls if none passed.
    walls = ledger.pass_walls or ledger.walls
    n = len(walls)
    log(f"{n} passing calls took {sum(walls):.3f} s; failed calls {sum(ledger.walls) - sum(walls):.3f} s")
    log(f"verify_p50_ms = {statistics.median(walls) * 1e3:.4f} ms over {n} calls")
    found = tail(walls)
    if found:
        log(f"verify_tail_ms p{found[0]:.2f} = {found[1] * 1e3:.4f} ms over {n} calls ({TAIL_BEYOND} beyond)")
    else:
        log(f"verify_tail_ms omitted: {n} calls, fewer than {2 * TAIL_BEYOND}")
    metrics = {
        "setup_s": statistics.median(setup),
        "verify_per_s": n / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return ledger, metrics


def run_traced(sixfold, records: list[dict], out_path: Path) -> tuple[Ledger, dict, list[str]]:
    from bench_trace import Tracer

    tracer = Tracer()
    plain, traced = Ledger(), Ledger(list_failures=False)
    origin = time.perf_counter()

    def traced_call(rec):
        with tracer:
            return bench_program.call(sixfold, rec)

    # Alternate which pass goes first so neither always meets warmer caches.
    for i, rec in enumerate(records):
        passes = ((plain, lambda r: bench_program.call(sixfold, r)), (traced, traced_call))
        for ledger, run in passes if i % 2 == 0 else passes[::-1]:
            ledger.record(rec, run)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(out_path, origin)

    mismatches = list(traced.errors)
    for rec, a, b in zip(records, plain.reports, traced.reports):
        if a is not None and b is not None and bench_program.fingerprint(a) != bench_program.fingerprint(b):
            mismatches.append(f"traced report differs from untraced on {json.dumps(rec)}")
    return plain, layer_metrics(tracer.summary(), plain, traced), mismatches


def layer_metrics(spans: dict, plain: Ledger, traced: Ledger) -> dict:
    def row(name):
        return spans.get(name, {"calls": 0, "incl": 0.0, "self": 0.0, "work": 0})

    def per(seconds, work):
        return seconds / work * 1e9 if work else 0.0

    reports = [r for r in plain.reports if r is not None]
    path_s = {p: sum(r.paths[p].seconds for r in reports if p in r.paths) for p in PATHS}
    out = {f"engine.path_s.{p}": s for p, s in path_s.items()}
    out["engine.overhead_s"] = sum(plain.walls) - sum(path_s.values())
    for key, name in LERCH_CALLS.items():
        out[f"lerch.calls.{key}"] = row(name)["calls"]
    out["lerch.abel_plana_s"] = row("lerch._abel_plana_phi")["self"]
    for f in SPECIALFN:
        out[f"specialfn.{f}.calls"] = row(f"specialfn.{f}")["calls"]
        out[f"specialfn.{f}.s"] = row(f"specialfn.{f}")["self"]
    out["jets.closed_form_jet_s"] = row("jets.closed_form_jet")["self"]
    out["jets.jet_of_gamma_s"] = row("jets.jet_of_gamma")["self"]
    qmc = row("quad.integrate_6d_qmc")
    out["quad.qmc.kernel_s"] = row("quad.Integrand6D.x_kernel")["incl"] + row("quad.Integrand6D.y_kernel")["incl"]
    out["quad.qmc.coupling_s"] = row("quad.Integrand6D.coupling")["incl"]
    out["quad.qmc.log_axes_s"] = qmc["self"]
    out["quad.sobol_points_s"] = row("quad.sobol_points")["incl"]
    out["quad.qmc_ns_per_point"] = per(qmc["incl"], qmc["work"])
    for f in LEGENDRE:
        r = row(f"legendre.{f}")
        out[f"legendre.{f}.s"] = r["self"]
        out[f"legendre.{f}.nodes"] = r["work"]
        out[f"legendre.{f}.ns_per_node"] = per(r["self"], r["work"])
    out["quad.integrate_6d_tensor_s"] = row("quad.integrate_6d_tensor")["self"]
    for f in RULES:
        out[f"quad.{f}.calls"] = row(f"quad.{f}")["calls"]
        out[f"quad.{f}.s"] = row(f"quad.{f}")["self"]
    out["trace_overhead_ratio"] = sum(traced.walls) / sum(plain.walls)
    out["verify_p50_ms"] = statistics.median(plain.pass_walls or plain.walls) * 1e3
    out["fail_ratio"] = plain.failed / len(plain.walls)
    out["err_rel_p50"] = statistics.median(plain.err_rel) if plain.err_rel else 0.0
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=bench_inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_program.pin_blas()
    try:
        sixfold = bench_program.load()
    except MissingProgram as exc:
        print(f"perfbench: cannot benchmark: {exc}", file=sys.stderr)
        return 2
    log(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    log(f"machine {machine_info(sixfold)}")

    valid = bench_program.validator(sixfold)
    shapes = bench_inputs.round_shapes(args.workload)
    warm = bench_program.warmup_records(bench_inputs.take(args.workload, args.seed, valid, shapes))
    for rec in warm:
        bench_program.call(sixfold, rec, warmup=True)

    mismatches: list[str] = []
    if args.trace:
        records = bench_inputs.take(args.workload, args.seed, valid, TRACE_ROUNDS[args.workload] * shapes)
        out_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        ledger, metrics, mismatches = run_traced(sixfold, records, out_path)
        log(f"{len(records)} inputs replayed untraced and traced; spans in {os.path.relpath(out_path, ROOT)}")
        units = PER_LAYER
    else:
        stream = bench_inputs.iter_inputs(args.workload, args.seed, valid)
        calls = planned_calls(args.workload, args.seconds)
        ledger, metrics = run_untraced(sixfold, stream, calls, args.seconds, warm)
        units = END_TO_END

    attempted = len(ledger.walls)
    log(f"calls={attempted} failed={ledger.failed} fail_ratio={ledger.failed / attempted:.6f}")
    if ledger.err_rel:
        log(f"err_rel_p50={statistics.median(ledger.err_rel):.6e} over {len(ledger.err_rel)} qmc/tensor values")
    for line in ledger.errors + mismatches:
        log(f"INCORRECT {line}")
    result = {
        "correct": not (ledger.errors or mismatches),
        "attempted": attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
