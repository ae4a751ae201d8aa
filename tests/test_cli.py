import json
import math

import pytest

from sixfold.cli import main, parse_complex
from sixfold.core import DomainError, ParameterSet, Tolerances
from sixfold.engine import CATALOG, PATH_NAMES, verify


def test_parse_complex_forms():
    assert parse_complex("0.5") == 0.5
    assert parse_complex("-2") == -2.0
    assert parse_complex("0.3+0.4i") == 0.3 + 0.4j
    assert parse_complex("1e-3-2.5i") == 1e-3 - 2.5j
    assert parse_complex("+1.5e2+0.5e-1i") == 150 + 0.05j


def test_parse_complex_rejects_expressions():
    for bad in ("1+2", "2i+1", "abc", "1/2", ""):
        with pytest.raises(DomainError):
            parse_complex(bad)


def test_parse_complex_round_trips_every_finite_pair():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    finite = st.floats(allow_nan=False, allow_infinity=False)

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @hypothesis.given(finite, finite)
    def round_trip(re, im):
        sign = "+" if math.copysign(1.0, im) > 0 else "-"
        z = parse_complex(f"{re!r}{sign}{abs(im)!r}i")
        assert (z.real.hex(), z.imag.hex()) == (re.hex(), im.hex())

    round_trip()


def test_list_has_all_cases(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for tag in ("theorem", "degenerate", "apery", "log2_limit", "harmonic_limit"):
        assert tag in out


def test_list_single_case_constraints(capsys):
    assert main(["list", "--case", "apery"]) == 0
    out = capsys.readouterr().out
    assert "k = -3" in out


def test_list_json(capsys):
    assert main(["list", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 11
    assert {entry["tag"] for entry in payload} >= {"theorem", "apery"}


def test_unknown_case_exit_two_in_list_and_verify(capsys):
    tags = sorted(c.tag for c in CATALOG)
    for command in ("list", "verify"):
        assert main([command, "--case", "nope"]) == 2
        assert capsys.readouterr() == ("", f"error: unknown case tag 'nope'; use one of {tags}\n")


def test_unknown_path_exit_two(capsys):
    assert main(["verify", "--paths", "jet,nope"]) == 2
    assert capsys.readouterr() == ("", f"error: unknown path 'nope'; valid: {PATH_NAMES}\n")


def test_verify_pass_exit_zero(capsys):
    code = main(
        [
            "verify",
            "--case",
            "theorem",
            "--k",
            "2",
            "--a",
            "1.5",
            "--m",
            "0.4",
            "--u",
            "-0.3",
            "--v",
            "1.2",
            "--mu",
            "-0.1",
            "--nu",
            "0.9",
            "--paths",
            "jet,moment,closed",
            "--tol",
            "1e-8",
            "--format",
            "json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    assert set(payload["paths"]) == {"jet", "moment", "closed"}


def test_verify_validation_exit_two(capsys):
    code = main(["verify", "--case", "theorem", "--m", "1.2"])
    assert code == 2
    assert "0<Re(m)<1" in capsys.readouterr().out


def test_verify_fail_exit_one(capsys):
    # absurdly tight tolerance turns rounding into a verdict failure
    code = main(
        [
            "verify",
            "--case",
            "apery",
            "--paths",
            "closed,special",
            "--tol",
            "1e-30",
            "--abs-tol",
            "0",
        ]
    )
    assert code == 1


def test_verify_json_deterministic(capsys):
    args = [
        "verify",
        "--case",
        "degenerate",
        "--m",
        "0.5",
        "--paths",
        "qmc,closed",
        "--qmc-count",
        "4096",
        "--seed",
        "7",
        "--format",
        "json",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_output_file_and_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SIXFOLD_OUTPUT_DIR", str(tmp_path))
    code = main(
        [
            "verify",
            "--case",
            "apery",
            "--paths",
            "closed,special",
            "--format",
            "csv",
            "--output",
            "report.csv",
        ]
    )
    assert code == 0
    text = (tmp_path / "report.csv").read_text()
    assert "apery" in text and "closed" in text


def test_verify_csv_values_are_plain_numbers(capsys):
    # The closed path of this case runs the Abel-Plana Lerch evaluator,
    # whose numpy scalars once printed as np.float64(...) in the CSV.
    assert main("verify --case difference_arctanh --m 0.3 --v 0.9 --n 0.4 --format csv".split()) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    columns = header.split(",")
    assert rows and all(row.split(",")[2] == "ok" for row in rows)
    for row in rows:
        fields = dict(zip(columns, row.split(",")))
        for name in ("value_re", "value_im"):
            float(fields[name])
        assert fields["err"] == "" or float(fields["err"]) >= 0.0


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = apery\npaths = closed,special\nformat = json\n")
    code = main(["verify", "--config", str(cfg)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "apery"


def _exit_code(argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


_FLAG_ONLY_REFUSALS = {
    # A config line is the argument --timings=true, which argparse refuses
    # for a flag that takes no value.
    "timings = true": "sixfold verify: error: argument --timings: ignored explicit argument 'true'\n",
    "config = other.cfg": "error: config key 'config' can only be given on the command line\n",
}


@pytest.mark.parametrize("line", ["timings = true", "config = other.cfg"])
def test_verify_config_rejects_flag_only_keys(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"case = apery\npaths = closed,special\nformat = json\n{line}\n")
    assert _exit_code(["verify", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(_FLAG_ONLY_REFUSALS[line]), err


def test_verify_config_format_outside_choices_exit_two(tmp_path, capsys):
    # A config value is parsed as the same flag, so both are refused alike.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = apery\npaths = closed,special\nformat = xml\n")
    for argv in (["verify", "--case", "apery", "--format", "xml"], ["verify", "--config", str(cfg)]):
        assert _exit_code(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "argument --format: invalid choice: 'xml'" in err, err


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("case = apery\nformat json\n", "error: config line not of the form key = value: 'format json'\n"),
        ("case = apery\nfoo = 1\n", "sixfold: error: unrecognized arguments: --foo=1\n"),
    ],
    ids=["malformed", "unknown_key"],
)
def test_verify_config_bad_line_exit_two(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert _exit_code(["verify", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(message), err


def test_verify_flags_win_over_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = apery\nformat = csv\n")
    assert main(["verify", "--config", str(cfg), "--case", "log3", "--paths", "closed,special", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "log3"


def test_verify_config_negative_literal(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a = -2+1i\npaths = closed\n")
    assert _json_report(capsys, "--config", str(cfg))["params"]["a"] == [-2.0, 1.0]


def _json_report(capsys, *flags):
    assert main(["verify", *flags, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_qmc_flags_override_only_their_field(capsys):
    # --qmc-count alone used to fall back to seed 0 instead of the default.
    base = ["--case", "degenerate", "--m", "0.5", "--paths", "qmc,closed"]
    default = _json_report(capsys, *base)
    assert _json_report(capsys, *base, "--qmc-count", "65536") == default
    assert _json_report(capsys, *base, "--seed", "20170") == default


@pytest.mark.parametrize(
    ("flag", "literal", "pair"),
    [
        ("--a", "-2+1i", [-2.0, 1.0]),
        ("--a", "-1e-3", [-1e-3, 0.0]),
        ("--mu", "-0.1+0.2i", [-0.1, 0.2]),
        ("--k", "-0.5", [-0.5, 0.0]),
    ],
)
def test_negative_literal_after_flag(capsys, flag, literal, pair):
    # argparse takes "-2+1i" for an option unless it is joined to its flag.
    report = _json_report(capsys, flag, literal, "--paths", "closed")
    assert report["params"][flag[2:]] == pair


def test_inadmissible_path_detail_in_json(capsys):
    report = _json_report(capsys, "--k", "0.5", "--paths", "jet,closed")
    assert report["paths"]["jet"] == {"status": "inadmissible", "detail": "jet paths need integer k in [0, 10]"}
    assert report["paths"]["closed"]["status"] == "ok"


def test_tolerance_flags_override_only_their_field(capsys):
    default = Tolerances()
    rep = verify("apery", ParameterSet(), paths=("closed", "special"))
    assert rep.tolerances == default

    def tolerances(*flags):
        report = _json_report(capsys, "--case", "apery", "--paths", "closed,special", *flags)
        return report["tolerances"]

    assert tolerances() == {"abs": default.abs_tol, "rel": default.rel_tol}
    assert tolerances("--tol", "1e-6") == {"abs": default.abs_tol, "rel": 1e-6}
    assert tolerances("--abs-tol", "1e-9") == {"abs": 1e-9, "rel": default.rel_tol}


def test_selftest_only_filter(capsys):
    code = main(["selftest", "--only", "a9"])
    out = capsys.readouterr().out
    assert code == 0
    assert "A9" in out and "PASS" in out


def test_selftest_unknown_filter(capsys):
    assert main(["selftest", "--only", "zzz"]) == 2


def test_verify_numeric_path_failure_exit_three(capsys):
    # the zeta-line closed form has a pole at k = -1; requesting it there
    # must surface as a numeric-path failure, not a silent skip
    code = main(
        ["verify", "--case", "eta_zeta_line", "--k", "-1", "--paths", "closed,special"]
    )
    assert code == 3
    assert "PoleError" in capsys.readouterr().out


CASE_FLAGS = {
    "theorem": ["--k", "1", "--paths", "jet,moment,closed"],
    "degenerate": ["--paths", "jet,closed,special"],
    "hurwitz_zeta_form": ["--k", "2", "--paths", "jet,closed,special"],
    "harmonic_limit": ["--paths", "closed,special,limit"],
    "difference_arctanh": ["--n", "0.25", "--paths", "closed,special"],
    "log3": ["--paths", "closed,special"],
    "arccoth_sqrt2": ["--paths", "closed,special"],
    "alt_lerch": ["--k", "1", "--m", "0.8", "--a", "0.7", "--paths", "jet,closed,special"],
    "eta_zeta_line": ["--k", "3", "--paths", "jet,closed,special"],
    "log2_limit": ["--paths", "closed,special,limit"],
    "apery": ["--paths", "closed,special,limit"],
}


def test_every_catalog_case_reachable(capsys):
    from sixfold.engine import CATALOG

    assert set(CASE_FLAGS) == {c.tag for c in CATALOG}
    for tag, flags in CASE_FLAGS.items():
        code = main(["verify", "--case", tag, *flags])
        out = capsys.readouterr().out
        assert code == 0, (tag, out)


def test_selftest_catches_injected_sign_flip(monkeypatch, capsys):
    import sixfold.jets as jets_mod
    from sixfold.acceptance import criterion_a2_theorem_integer_k

    original = jets_mod.jet_csc
    monkeypatch.setattr(
        jets_mod, "jet_csc", lambda m, order: original(m, order).scale(-1.0)
    )
    result = criterion_a2_theorem_integer_k()
    assert not result.passed
    assert "A2" in result.name


_APERY = ["verify", "--case", "apery", "--paths", "closed,special", "--format", "json"]


@pytest.mark.parametrize(
    ("flag", "value", "message"),
    [
        ("--tol", "abc", "--tol: invalid float value 'abc'"),
        ("--abs-tol", "1e-3x", "--abs-tol: invalid float value '1e-3x'"),
        ("--qmc-count", "1e5", "--qmc-count: invalid int value '1e5'"),
        ("--qmc-count", "8589934592", "QmcSpec count must be at most 2^32, the Sobol period"),
        ("--seed", "7.5", "--seed: invalid int value '7.5'"),
        # nan failed two agreeing paths and inf passed anything; both were
        # printed as NaN/Infinity, which is not JSON.
        ("--tol", "nan", "tolerances must be finite"),
        ("--abs-tol", "inf", "tolerances must be finite"),
    ],
)
def test_bad_numeric_value_exit_two(capsys, tmp_path, flag, value, message):
    assert main([*_APERY, flag, value]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # The same value from a config file is refused the same way.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    assert main([*_APERY, "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    ("only", "expected"),
    [("lerch", ["A2", "A5", "A6", "A10"]), ("mellin", ["A1", "A3", "A10"])],
)
def test_selftest_only_matches_keywords(capsys, only, expected):
    assert main(["selftest", "--only", only]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines if line.startswith("PASS")] == expected


@pytest.mark.parametrize("n", ["0", "1", "1.5", "-0.5"])
def test_second_exponent_outside_its_strip_exit_two(capsys, n):
    assert main(["verify", "--case", "difference_arctanh", "--n", n]) == 2
    assert "violations: 0<Re(n)<1" in capsys.readouterr().out


def test_missing_second_exponent_exit_two(capsys):
    assert main(["verify", "--case", "difference_arctanh"]) == 2
    assert capsys.readouterr() == ("", "error: difference case needs the second exponent n\n")


def test_unread_second_exponent_exit_two(capsys):
    # Inside 0 < Re(n) < 1, so only the refusal can exit 2.
    assert main(["verify", "--case", "theorem", "--n", "0.3"]) == 2
    assert capsys.readouterr() == ("", "error: case 'theorem' takes no second exponent n\n")


def test_unreadable_config_exit_two(capsys, tmp_path):
    undecodable = tmp_path / "latin1.cfg"
    undecodable.write_bytes(b"case = th\xe9orem\n")
    for path in (tmp_path / "missing.cfg", tmp_path, undecodable):
        assert main(["verify", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot read --config {path}: "), err


def test_unwritable_output_exit_two(capsys, tmp_path):
    (tmp_path / "file").write_text("")
    for path in (tmp_path / "file" / "report.txt", tmp_path):
        assert main([*_APERY, "--output", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: cannot write --output {path}: "), err
