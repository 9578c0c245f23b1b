import json
from types import SimpleNamespace

import pytest

import ramschur.cli as cli
from ramschur.cli import main
from ramschur.foulkes import rnu_schur_expansion


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
        from ramschur.verify import CheckResult

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
