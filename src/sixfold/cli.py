"""Command-line front end: list the identity catalog, run verifications,
emit machine-readable reports, and run the acceptance self-test suite.

Exit codes for ``verify``: 0 pass, 1 verdict fail, 2 parameter validation
failure (the strip at m = n included, for a second exponent n given on the
command line), invalid option value, missing n for a difference case, n for
a case that takes none, or an unreadable ``--config`` or unwritable
``--output`` file, 3 numeric-path failure.  Every exit 2 that is not a
verdict prints one ``error: ...`` line on stderr, argparse's own errors
included; ``--help`` still prints the usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from pathlib import Path

from . import acceptance, engine
from .core import PARAM_NAMES, DomainError, ParameterSet, Tolerances
from .quad import QmcSpec

_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)


def parse_complex(text: str) -> complex:
    """Parse ``re``, ``re+imi`` or ``re-imi`` literals (no expressions)."""
    s = text.strip().replace(" ", "")
    match = _COMPLEX_RE.match(s)
    if not match:
        raise DomainError(
            f"cannot parse complex literal {text!r}; use forms like 0.5, -2, 0.3+0.4i, 1e-3-2.5i"
        )
    re_part = float(match.group("re"))
    im_part = float(match.group("im")) if match.group("im") else 0.0
    return complex(re_part, im_part)


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own errors (a bad option value, choice or argument)
    as DomainError, so ``main`` reports them as one ``error:`` line."""

    def error(self, message):
        raise DomainError(message)


def _join_literals(argv: list[str]) -> list[str]:
    """Join each complex literal onto a ``--flag`` before it written without
    ``=``: ``--a -2+1i`` becomes ``--a=-2+1i``, which argparse would
    otherwise take for an option."""
    out: list[str] = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _COMPLEX_RE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _config_args(path: str) -> list[str]:
    """The ``key = value`` lines of a config file as ``--key=value`` arguments."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read --config {path}: {exc}") from None
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"config line not of the form key = value: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if key == "config":
            raise DomainError(f"config key {key!r} can only be given on the command line")
        out.append(f"--{key}={value.strip()}")
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sixfold",
        description="Multi-path verification of the six-fold log-kernel Legendre "
        "integral family and its Lerch-zeta closed forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list the identity catalog")
    p_list.add_argument("--case", default=None, help="show only this case tag")
    p_list.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="verify one identity case")
    p_verify.add_argument("--case", default="theorem", help="case tag (default %(default)s)")
    for name in PARAM_NAMES:
        p_verify.add_argument(f"--{name}", type=parse_complex, default=getattr(ParameterSet, name),
                              help=f"parameter {name} (complex literal, default %(default)s)")
    p_verify.add_argument("--n", type=parse_complex, help="second exponent for difference cases")
    p_verify.add_argument("--paths", default=None, help="comma-separated path subset")
    for flag, cast, default, what in (
        ("--tol", float, Tolerances.rel_tol, "relative tolerance"),
        ("--abs-tol", float, Tolerances.abs_tol, "absolute tolerance"),
        ("--qmc-count", int, QmcSpec.count, "Sobol points per replicate"),
        ("--seed", int, QmcSpec.shift_seed, "digital-shift seed"),
    ):
        p_verify.add_argument(flag, type=cast, default=default, help=f"{what} (default %(default)s)")
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_verify.add_argument("--output", default=None, help="write the report here instead of stdout")
    p_verify.add_argument("--config", default=None, help="key = value file read ahead of the flags")
    p_verify.add_argument("--timings", action="store_true", help="include wall times in the report")

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--only", default=None, help="run only criteria with this word in their name or keywords")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    cases = (engine.catalog_case(args.case),) if args.case else engine.CATALOG
    if args.format == "json":
        payload = [
            {
                "tag": c.tag,
                "label": c.label,
                "constraints": c.constraints,
                "paths": list(c.paths),
            }
            for c in cases
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for c in cases:
            print(f"{c.tag:20s} {c.label}")
            print(f"{'':20s}   constraints: {c.constraints}")
            print(f"{'':20s}   paths: {', '.join(c.paths)}")
    return 0


def _render_text(report) -> str:
    lines = [f"case: {report.case}   verdict: {report.verdict}"]
    ps = report.params
    lines.append(
        "params: "
        + ", ".join(f"{n}={getattr(ps, n):.6g}" for n in PARAM_NAMES)
        + ("" if report.second_exponent is None else f", n={report.second_exponent:.6g}")
    )
    if report.violations:
        lines.append("violations: " + "; ".join(report.violations))
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    for name, res in report.paths.items():
        if res.status == "ok":
            err = "" if res.err is None else f"  (err est {res.err:.2e})"
            lines.append(f"  {name:8s} {res.value:.15g}{err}   [{res.seconds:.3f}s]")
        else:
            lines.append(f"  {name:8s} {res.status}: {res.detail}")
    for pair, d in report.diffs.items():
        lines.append(f"  diff {pair}: abs {d['abs']:.3e}  rel {d['rel']:.3e}")
    return "\n".join(lines)


def _write_output(text: str, args: argparse.Namespace) -> None:
    if args.output:
        path = Path(args.output)
        if not path.is_absolute():
            base = os.environ.get("SIXFOLD_OUTPUT_DIR")
            if base:
                path = Path(base) / path
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text + "\n")
        except OSError as exc:
            raise DomainError(f"cannot write --output {path}: {exc}") from None
    else:
        print(text)


def _cmd_verify(args: argparse.Namespace) -> int:
    ps = ParameterSet(**{name: getattr(args, name) for name in PARAM_NAMES})
    paths = tuple(p.strip() for p in args.paths.split(",")) if args.paths else None
    tol = Tolerances(abs_tol=args.abs_tol, rel_tol=args.tol)
    qmc_spec = QmcSpec(count=args.qmc_count, shift_seed=args.seed)

    report = engine.verify(args.case, ps, tol=tol, paths=paths, second=args.n, qmc_spec=qmc_spec)

    if args.format == "json":
        text = json.dumps(
            engine.report_to_dict(report, include_times=args.timings),
            indent=2,
            sort_keys=True,
        )
    elif args.format == "csv":
        buffer = io.StringIO()
        rows = engine.report_to_csv_rows(report)
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue().rstrip("\n")
    else:
        text = _render_text(report)
    _write_output(text, args)

    if report.verdict == "invalid_parameters":
        return 2
    if any(r.status == "error" for r in report.paths.values()):
        return 3
    return 0 if report.verdict == "pass" else 1


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = acceptance.run_suite(only=args.only)
    if not results:
        raise DomainError(f"no criteria match {args.only!r}")
    all_ok = True
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        all_ok = all_ok and res.passed
        print(f"{mark}  {res.name}  [{res.seconds:.1f}s]")
        print(f"      {res.detail}")
    return 0 if all_ok else 1


_COMMANDS = {"list": _cmd_list, "verify": _cmd_verify, "selftest": _cmd_selftest}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = _join_literals(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # The file's arguments go first, so an explicit flag wins.
            args = parser.parse_args([args.command, *_config_args(args.config), *argv[1:]])
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
