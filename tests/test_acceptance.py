"""End-to-end acceptance gate.

One test per criterion, each printing a single PASS/FAIL line (visible
under pytest -s) and enforcing its runtime budget.  The final sweep is
reported but never fails the build: the positivity of R(n, 2) is open,
so a counterexample would be a finding, not a bug.
"""

import time
from contextlib import contextmanager

from ramschur.arith import factorize
from ramschur.foulkes import (
    check_positivity,
    rnu_ell_expansion,
    rnu_schur_expansion,
    scalar_divisibility_check,
)
from ramschur.reference import (
    reference_ell_expansions,
    reference_phi_expansions,
    reference_table_ns,
    reference_table_u_max,
)
from ramschur.verify import (
    check_dual_foulkes,
    check_ell_examples,
    check_matrix_entry_sum,
    check_matrix_square,
    check_phi_expansions,
    check_positivity_table,
    check_row_sum_product_formula,
    check_row_sum_vanishing,
    check_signed_trace_formula,
    check_swanson,
    check_trace_formula,
    check_y_nonneg_u01,
)


@contextmanager
def criterion(label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE PASS {label} ({elapsed:.2f}s, budget {budget_seconds}s)")
    assert elapsed < budget_seconds, f"{label}: {elapsed:.2f}s exceeded {budget_seconds}s"


def passes(result):
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_01_schur_expansions_small_n():
    with criterion("01-schur-expansions-n2-to-n6", 1.0):
        assert sorted(reference_phi_expansions()) == [2, 3, 4, 5, 6]
        passes(check_phi_expansions())
        # spot value quoted in the reference data
        assert rnu_schur_expansion(6, 0).coefficient((3, 2, 1)) == 14


def test_criterion_02_ell_basis_expansions():
    with criterion("02-ell-expansions-8-2-and-9-2", 1.0):
        assert rnu_ell_expansion(8, 2).coeffs == {8: 6, 4: 6, 2: -4}
        assert rnu_ell_expansion(9, 2).coeffs == {9: 5, 3: 10, 1: -6}
        assert reference_ell_expansions() == {
            (8, 2): {8: 6, 4: 6, 2: -4},
            (9, 2): {9: 5, 3: 10, 1: -6},
        }
        passes(check_ell_examples())


def test_criterion_03_positivity_table():
    with criterion("03-positivity-table", 300.0):
        assert reference_table_ns() == [8, 9, 16, 18, 24, 25, 27, 32, 36, 40, 45]
        assert reference_table_u_max() == 20
        passes(check_positivity_table())


def test_criterion_04_matrix_identities():
    with criterion("04-matrix-identities-n200", 30.0):
        passes(check_matrix_square(200))
        passes(check_matrix_entry_sum(200))
        passes(check_trace_formula(200))
        passes(check_signed_trace_formula(200))


def test_criterion_05_row_sums():
    with criterion("05-row-sums-n5000", 120.0):
        passes(check_row_sum_product_formula(5000))
        passes(check_row_sum_vanishing(5000))


def test_criterion_06_dual_foulkes():
    with criterion("06-dual-foulkes-n12", 120.0):
        passes(check_dual_foulkes(12))


def test_criterion_07_swanson_vanishing():
    with criterion("07-swanson-vanishing-n12", 120.0):
        passes(check_swanson(12))


def _squarefree(n):
    return all(a == 1 for _, a in factorize(n).factors)


def test_criterion_08_positivity_theorems():
    with criterion("08-positivity-theorems", 180.0):
        passes(check_y_nonneg_u01(500))
        for n in range(1, 31):
            covered = _squarefree(n) or (n % 4 == 0 and (n // 4) % 2 == 1 and _squarefree(n // 4))
            if not covered:
                continue
            for u in range(0, 21):
                verdict = check_positivity(n, u)
                assert verdict.schur_positive, f"R({n},{u}) not Schur positive"


def test_criterion_09_scalar_divisibility():
    with criterion("09-scalar-divisibility-n30", 60.0):
        for n in range(1, 31):
            result = scalar_divisibility_check(n)
            assert result.divides, (
                f"scalar {result.scalar} fails to divide some coefficient of R({n}, 1)"
            )


def test_criterion_10_conjecture_sweep_reported():
    with criterion("10-conjecture-sweep-R-n-2", 600.0):
        counterexamples = []
        for n in range(1, 46):
            verdict = check_positivity(n, 2)
            if not verdict.schur_positive:
                counterexamples.append((n, verdict.witness))
        if counterexamples:
            print()
            print("=" * 72)
            print("CONJECTURE COUNTEREXAMPLE: R(n, 2) is NOT Schur positive for:")
            for n, witness in counterexamples:
                lam, c = witness
                print(f"  n = {n}: coefficient of s_{lam} is {c}")
            print("This does not fail the build; the positivity of R(n, 2) is open.")
            print("=" * 72)
        else:
            print("conjecture sweep: R(n, 2) Schur positive for all n <= 45")
        # the sweep itself must complete; its outcome is informational
        assert True
