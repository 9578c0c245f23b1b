"""The output checks: genuine outputs pass, corrupted ones count as failures."""

import contextlib
import io
import json
import subprocess

import pytest

import ramschur
from ramschur import cli
import workloads


def _cli_stdout(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue().encode()


# ---------------------------------------------------------------- grid


def test_grid_check_passes_true_verdicts():
    cells = [(8, 3), (9, 3), (8, 2)]
    results = workloads.grid_run(cells)
    outcome = workloads.grid_check(cells, results)
    assert (outcome.attempted, outcome.failed) == (3, 0)


def test_grid_check_counts_a_wrong_verdict_and_a_raise():
    cells = [(8, 3), (9, 3), (8, 2)]
    results = workloads.grid_run(cells)
    flipped = ramschur.PositivityVerdict(8, 3, True, None, False)
    results[0] = (flipped, 0.0)
    results[2] = (RuntimeError("boom"), 0.0)
    outcome = workloads.grid_check(cells, results)
    assert (outcome.attempted, outcome.failed) == (3, 2)


def test_grid_check_counts_a_wrong_witness():
    verdict = ramschur.check_positivity(16, 4)
    moved = ramschur.PositivityVerdict(16, 4, False, ((14, 2), verdict.witness[1]), False)
    outcome = workloads.grid_check([(16, 4)], [(moved, 0.0)])
    assert outcome.failed == 1


# ---------------------------------------------------------------- sweep


def _proc(stdout: bytes, returncode: int = 0):
    return subprocess.CompletedProcess([], returncode, stdout, b"")


@pytest.mark.parametrize("n, u", [(12, 2), (18, 3), (24, 0), (20, 5)])
def test_expansion_identities_hold(n, u):
    raw = _cli_stdout(["rnu", "--n", str(n), "--u", str(u), "--format", "json"])
    assert workloads.expansion_problem(json.loads(raw), n, u) is None


def test_syt_count_beta_matches_hook_formula():
    for shape in ramschur.partition_list(9):
        assert workloads.syt_count_beta(shape) == ramschur.syt_count(shape)


def test_sweep_check_passes_genuine_output():
    commands = [["table", "--n", "3,1,2", "--u-max", "2"], ["rnu", "--n", "12", "--u", "2", "--format", "json"]]
    results = [(_proc(_cli_stdout(argv)), 0.0) for argv in commands]
    outcome = workloads.sweep_check(commands, results)
    assert (outcome.attempted, outcome.failed) == (2, 0)


def test_sweep_check_counts_corrupted_json():
    argv = ["rnu", "--n", "12", "--u", "2", "--format", "json"]
    doc = json.loads(_cli_stdout(argv))
    doc["terms"][5]["coeff"] = str(int(doc["terms"][5]["coeff"]) + 1)
    outcome = workloads.sweep_check([argv], [(_proc(json.dumps(doc).encode()), 0.0)])
    assert outcome.failed == 1


def test_sweep_check_counts_a_negative_cell_a_bad_exit_and_a_raise():
    argv = ["table", "--n", "3,1,2", "--u-max", "2"]
    text = _cli_stdout(argv).decode()
    corrupted = text[: text.rindex("Y")] + "N" + text[text.rindex("Y") + 1 :]
    results = [
        (_proc(corrupted.encode()), 0.0),
        (_proc(text.encode(), returncode=3), 0.0),
        (OSError("no such file"), 0.0),
    ]
    outcome = workloads.sweep_check([argv, argv, argv], results)
    assert (outcome.attempted, outcome.failed) == (3, 3)


# ---------------------------------------------------------------- ell


def test_ell_check_passes_genuine_results():
    ops = [("ell", 720720, 0), ("ell", 2 * 100_000_000_003, 3), ("row_sums", 360), ("build_matrix", 360)]
    outcome = workloads.ell_check(ops, workloads.ell_run(ops))
    assert (outcome.attempted, outcome.failed) == (4, 0)


def test_ell_check_counts_corrupted_results():
    ops = [("ell", 360, 0), ("ell", 360, 4), ("row_sums", 360), ("build_matrix", 360)]
    results = workloads.ell_run(ops)
    expansion = results[0][0]
    k = max(expansion.coeffs)
    expansion.coeffs[k] += 1
    results[2][0][1] += 1
    outcome = workloads.ell_check(ops, results)
    assert outcome.failed == 2
    assert outcome.failures[0].startswith("ell(360, 0)")


def test_ell_check_counts_a_matrix_with_wrong_entries():
    ops = [("row_sums", 12), ("build_matrix", 12)]
    results = workloads.ell_run(ops)
    matrix = results[1][0]
    rows = (tuple(v + 1 for v in matrix.rows[0]),) + matrix.rows[1:]
    results[1] = (ramschur.RamanujanMatrix(12, matrix.divisors, rows), 0.0)
    outcome = workloads.ell_check(ops, results)
    assert outcome.failed == 2


# ---------------------------------------------------------------- inputs


def test_inputs_repeat_for_a_seed_and_vary_between_seeds():
    for name, workload in workloads.WORKLOADS.items():
        assert workload.inputs(4) == workload.inputs(4), name
    assert workloads.grid_inputs(4) != workloads.grid_inputs(5)
    assert workloads.ell_inputs(4) != workloads.ell_inputs(5)


def test_ell_large_n_are_distinct_and_in_range():
    for seed in range(3):
        ns = [op[1] for op in workloads.ell_inputs(seed) if op[0] == "ell" and op[1] >= 10**11]
        assert len(ns) == len(set(ns)) == len(workloads.ELL_LARGE_COFACTORS) * workloads.ELL_LARGE_STRATA
        assert all(n <= 10**12 for n in ns)
        assert all(
            any(n % m == 0 and workloads.is_probable_prime(n // m) for m in workloads.ELL_LARGE_COFACTORS)
            for n in ns
        )


def test_is_probable_prime_agrees_with_the_library():
    for n in range(1, 3000):
        assert workloads.is_probable_prime(n) == ramschur.is_prime(n)
