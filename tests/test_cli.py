import contextlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import ramschur.cli as cli
from ramschur.cli import main
from ramschur.foulkes import rnu_ell_expansion, rnu_schur_expansion
from ramschur.verify import CheckResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRam:
    def test_trace_text(self, capsys):
        code, out, _ = run(capsys, "ram", "--n", "9", "--what", "trace")
        assert code == 0
        assert out.strip() == "3"

    def test_trace_json(self, capsys):
        code, out, _ = run(capsys, "ram", "--n", "9", "--what", "trace", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"kind": "matrix", "n": 9, "what": "trace", "value": "3"}

    def test_signed_trace(self, capsys):
        code, out, _ = run(capsys, "ram", "--n", "18", "--what", "signed-trace")
        assert code == 0
        assert out.strip() == "6"

    def test_signed_trace_odd_n_is_usage_error(self, capsys):
        code, out, err = run(capsys, "ram", "--n", "9", "--what", "signed-trace")
        assert code == 2
        assert out == ""
        assert "even n" in err

    def test_matrix_text(self, capsys):
        code, out, _ = run(capsys, "ram", "--n", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n = 4, divisors: 1 2 4"
        # last row holds c_4 evaluated at 4, 2, 1
        assert lines[-1].split()[1:] == ["2", "-2", "0"]

    def test_matrix_n1(self, capsys):
        code, out, _ = run(capsys, "ram", "--n", "1")
        assert code == 0
        assert "n = 1, divisors: 1" in out

    def test_matrix_csv(self, capsys):
        code, out, _ = run(capsys, "ram", "--n", "4", "--format", "csv")
        assert code == 0
        assert out.strip().splitlines() == [
            "d,1,2,4",
            "1,1,1,1",
            "2,1,1,-1",
            "4,2,-2,0",
        ]

    def test_rowsums_text(self, capsys):
        code, out, _ = run(capsys, "ram", "--n", "6", "--what", "rowsums")
        assert code == 0
        assert out.strip().splitlines() == ["1: 4", "2: 0", "3: 2", "6: 0"]

    def test_rowsums_csv(self, capsys):
        code, out, _ = run(capsys, "ram", "--n", "6", "--what", "rowsums", "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[0] == "divisor,rowsum"


class TestFoulkesCommand:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "foulkes", "--n", "4", "--r", "4")
        assert code == 0
        assert out.strip() == "1 s[4] + 1 s[2,2] + 1 s[2,1,1]"

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "foulkes", "--n", "6", "--r", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "schur-expansion"
        assert all(isinstance(t["coeff"], str) for t in doc["terms"])
        assert out.strip() == json.dumps(doc, indent=2)

    def test_bad_label(self, capsys):
        code, _, err = run(capsys, "foulkes", "--n", "6", "--r", "0")
        assert code == 2
        assert "label" in err


class TestRnu:
    def test_schur_text(self, capsys):
        code, out, _ = run(capsys, "rnu", "--n", "4", "--u", "0")
        assert code == 0
        assert out.strip() == "3 s[4] + 1 s[3,1] + 4 s[2,2] + 3 s[2,1,1] + 1 s[1,1,1,1]"

    def test_n1_edge(self, capsys):
        code, out, _ = run(capsys, "rnu", "--n", "1", "--u", "5")
        assert code == 0
        assert out.strip() == "1 s[1]"

    def test_ell_text(self, capsys):
        code, out, _ = run(capsys, "rnu", "--n", "8", "--u", "2", "--basis", "ell")
        assert code == 0
        assert out.strip() == "6 l[8] + 6 l[4] - 4 l[2]"

    def test_ell_json_ascending(self, capsys):
        code, out, _ = run(
            capsys, "rnu", "--n", "8", "--u", "2", "--basis", "ell", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "ell-expansion"
        assert doc["terms"] == [
            {"divisor": 2, "coeff": "-4"},
            {"divisor": 4, "coeff": "6"},
            {"divisor": 8, "coeff": "6"},
        ]

    def test_ell_csv(self, capsys):
        code, out, _ = run(
            capsys, "rnu", "--n", "8", "--u", "2", "--basis", "ell", "--format", "csv"
        )
        assert code == 0
        assert out.strip().splitlines() == ["divisor,coeff", "2,-4", "4,6", "8,6"]

    def test_schur_json_matches_library(self, capsys):
        code, out, _ = run(capsys, "rnu", "--n", "9", "--u", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        rebuilt = {tuple(t["partition"]): int(t["coeff"]) for t in doc["terms"]}
        assert rebuilt == rnu_schur_expansion(9, 2).terms
        assert out.strip() == json.dumps(doc, indent=2)

    def test_negative_u_is_usage_error(self, capsys):
        code, _, err = run(capsys, "rnu", "--n", "6", "--u", "-1")
        assert code == 2
        assert "u must be" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "rnu", "--n", "46", "--u", "1")
        assert code == 3
        assert "--max-n" in err

    def test_ell_basis_is_not_capped(self, capsys):
        code, out, _ = run(capsys, "rnu", "--n", "100", "--u", "1", "--basis", "ell")
        assert code == 0
        assert out.strip() == "10 l[100] + 10 l[50] + 40 l[20] + 40 l[10]"

    def test_cap_override_warns(self, capsys):
        code, out, err = run(capsys, "rnu", "--n", "8", "--u", "1", "--max-n", "46")
        assert code == 0
        assert "warning: raising the expansion degree cap to 46" in err
        assert out.strip() != ""

    def test_ell_basis_has_no_cap_to_raise(self, capsys):
        code, out, err = run(
            capsys, "rnu", "--n", "46", "--u", "1", "--basis", "ell", "--max-n", "46"
        )
        assert code == 0
        assert err == ""
        assert out.strip() != ""

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int->str digit limit"
    )
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_coefficients_past_the_digit_limit(self, capsys, fmt):
        # Every coefficient of R(36, 20000) has over 6000 digits, past the
        # interpreter's default int->str limit of 4300.
        limit = sys.get_int_max_str_digits()
        argv = ("rnu", "--n", "36", "--u", "20000", "--basis", "ell", "--format", fmt)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        if fmt != "json":
            return
        sys.set_int_max_str_digits(0)
        try:
            want = [str(c) for _, c in rnu_ell_expansion(36, 20000).items_asc()]
        finally:
            sys.set_int_max_str_digits(limit)
        assert [t["coeff"] for t in json.loads(out)["terms"]] == want
        assert min(map(len, want)) > 4300


class TestTable:
    def test_grid_text(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "8,9", "--u-max", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[1].split() == ["0", "Y", "Y"]
        assert lines[4].split() == ["3", "N", "Y"]

    def test_grid_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "8,9", "--u-max", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "u,8,9"
        assert lines[4] == "3,N,Y"

    def test_grid_json(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "8,9", "--u-max", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ns"] == [8, 9]
        assert doc["rows"][3] == {"u": 3, "verdicts": ["N", "Y"]}

    def test_expected_match(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "8,9", "--u-max", "4", "--expected")
        assert code == 0
        assert "expected: all cells match" in out

    def test_expected_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "check_positivity", lambda *a, **k: SimpleNamespace(schur_positive=False)
        )
        code, out, _ = run(capsys, "table", "--n", "8", "--u-max", "0", "--expected")
        assert code == 1
        assert "MISMATCH at n=8, u=0" in out

    def test_bad_n_list(self, capsys):
        code, _, err = run(capsys, "table", "--n", "8,x")
        assert code == 2
        assert "comma-separated" in err

    def test_bad_u_max(self, capsys):
        code, _, err = run(capsys, "table", "--n", "8", "--u-max", "-1")
        assert code == 2
        assert "--u-max" in err

    def test_ell_decided_cells_past_the_cap(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "100", "--u-max", "1")
        assert code == 0
        assert [line.split() for line in out.strip().splitlines()[1:]] == [
            ["0", "Y"],
            ["1", "Y"],
        ]

    def test_open_case_past_the_cap(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "1000", "--u-max", "2")
        assert code == 0
        assert [line.split() for line in out.strip().splitlines()[1:]] == [
            ["0", "Y"],
            ["1", "Y"],
            ["2", "Y"],
        ]


class TestVerifyCommand:
    def test_arith_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "arith", "--max-n", "40")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "suite arith: 4/4 checks passed"

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "arith", "--max-n", "30", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert len(doc["checks"]) == 4

    def test_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "run_suite", lambda suite, max_n: [CheckResult("stub", False, "boom")]
        )
        code, out, _ = run(capsys, "verify", "--suite", "arith")
        assert code == 1
        assert "FAIL stub" in out


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "usage:" in out

    def test_bad_format(self, capsys):
        assert main(["ram", "--n", "4", "--format", "yaml"]) == 2

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "rnu", "--n", "0", "--u", "1")
        assert code == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("rnu", "--n", "12", "--u", "2", "--format", "json"),
            ("rnu", "--n", "12", "--u", "3", "--basis", "ell", "--format", "csv"),
            ("foulkes", "--n", "8", "--r", "4", "--format", "json"),
            ("ram", "--n", "24", "--format", "csv"),
        ],
    )
    def test_reruns_are_byte_identical(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


# Golden corpus: every subcommand in every format, usage errors (exit 2),
# cap errors (exit 3) and --max-n warnings, captured from the CLI and
# compared byte for byte.  Regenerate after an intended output change with
#     PYTHONPATH=src python tests/test_cli.py
GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("text", "csv", "json")
GOLDEN_CASES = {
    "ram-matrix": ["ram", "--n", "12"],
    "ram-matrix-n1": ["ram", "--n", "1"],
    "ram-rowsums": ["ram", "--n", "12", "--what", "rowsums"],
    "ram-trace": ["ram", "--n", "9", "--what", "trace"],
    "ram-signed-trace": ["ram", "--n", "18", "--what", "signed-trace"],
    "ram-signed-trace-odd": ["ram", "--n", "9", "--what", "signed-trace"],
    "ram-bad-what": ["ram", "--n", "4", "--what", "bogus"],
    "ram-zero-matrix": ["ram", "--n", "0"],
    "ram-zero-rowsums": ["ram", "--n", "0", "--what", "rowsums"],
    "ram-zero-trace": ["ram", "--n", "0", "--what", "trace"],
    "foulkes": ["foulkes", "--n", "6", "--r", "3"],
    "foulkes-bad-label": ["foulkes", "--n", "6", "--r", "0"],
    "foulkes-cap": ["foulkes", "--n", "46", "--r", "1"],
    "foulkes-max-n": ["foulkes", "--n", "5", "--r", "1", "--max-n", "50"],
    "rnu-schur": ["rnu", "--n", "6", "--u", "2"],
    "rnu-schur-negative": ["rnu", "--n", "8", "--u", "3"],
    "rnu-n1": ["rnu", "--n", "1", "--u", "5"],
    "rnu-ell": ["rnu", "--n", "12", "--u", "3", "--basis", "ell"],
    "rnu-ell-large-n": ["rnu", "--n", "100", "--u", "1", "--basis", "ell"],
    "rnu-ell-max-n": ["rnu", "--n", "46", "--u", "1", "--basis", "ell", "--max-n", "46"],
    "rnu-ell-factor-limit": ["rnu", "--n", "1000000000039", "--u", "1", "--basis", "ell"],
    "rnu-cap": ["rnu", "--n", "46", "--u", "1"],
    "rnu-max-n": ["rnu", "--n", "8", "--u", "1", "--max-n", "46"],
    "rnu-negative-u": ["rnu", "--n", "6", "--u", "-1"],
    "rnu-bad-n": ["rnu", "--n", "0", "--u", "1"],
    "table": ["table", "--n", "8,9", "--u-max", "4"],
    "table-expected": ["table", "--n", "8,9,12", "--u-max", "4", "--expected"],
    "table-mismatch": ["table", "--n", "8,9", "--u-max", "1", "--expected"],
    "table-bad-n": ["table", "--n", "8,x"],
    "table-bad-u-max": ["table", "--n", "8", "--u-max", "-1"],
    "table-cap": ["table", "--n", "50", "--u-max", "3"],
    "table-max-n": ["table", "--n", "8", "--u-max", "1", "--max-n", "50"],
    "verify-arith": ["verify", "--suite", "arith", "--max-n", "20"],
    "verify-matrix": ["verify", "--suite", "matrix", "--max-n", "20"],
    "verify-foulkes": ["verify", "--suite", "foulkes", "--max-n", "6"],
    "verify-paper-values": ["verify", "--suite", "paper-values", "--max-n", "9"],
    "verify-all": ["verify", "--suite", "all", "--max-n", "6"],
    "verify-failure": ["verify", "--suite", "arith"],
    "unknown-command": ["bogus"],
}


def _golden_stubs(case):
    """Library stand-ins for the exit-1 cases, as (name, replacement) pairs."""
    if case == "table-mismatch":
        return [("check_positivity", lambda n, u, **k: SimpleNamespace(schur_positive=n == 9))]
    if case == "verify-failure":
        results = [CheckResult("stub-pass", True, "fine"), CheckResult("stub-fail", False, "")]
        return [("run_suite", lambda suite, max_n: results)]
    return []


def _golden_key(case, fmt):
    return f"{case}.{fmt}"


def _golden_status():
    return json.loads((GOLDEN / "status.json").read_text())


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_corpus(capsys, monkeypatch, case, fmt):
    monkeypatch.setenv("COLUMNS", "80")
    for name, stub in _golden_stubs(case):
        monkeypatch.setattr(cli, name, stub)
    code, out, err = run(capsys, *GOLDEN_CASES[case], "--format", fmt)
    key = _golden_key(case, fmt)
    with open(GOLDEN / key, encoding="utf-8", newline="") as fh:
        assert out == fh.read()
    assert [code, err] == _golden_status()[key]


def _write_golden():
    import os
    from unittest import mock

    os.environ["COLUMNS"] = "80"
    GOLDEN.mkdir(exist_ok=True)
    status = {}
    for case in sorted(GOLDEN_CASES):
        for fmt in FORMATS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.ExitStack() as stack:
                for name, stub in _golden_stubs(case):
                    stack.enter_context(mock.patch.object(cli, name, stub))
                stack.enter_context(contextlib.redirect_stdout(out))
                stack.enter_context(contextlib.redirect_stderr(err))
                code = main([*GOLDEN_CASES[case], "--format", fmt])
            key = _golden_key(case, fmt)
            with open(GOLDEN / key, "w", encoding="utf-8", newline="") as fh:
                fh.write(out.getvalue())
            status[key] = [code, err.getvalue()]
    (GOLDEN / "status.json").write_text(json.dumps(status, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _write_golden()
