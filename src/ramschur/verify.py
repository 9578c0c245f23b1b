"""Named verification suites over the library's identities.

Each check sweeps a documented default range, overridable through
max_n; all return CheckResult records with a counterexample string on
failure.  `SUITES` is the one registry of suites and their checks, in
the order `run_suite("all")` runs them.  The CLI `verify` subcommand
drives these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Callable, Optional

from .arith import (
    diagonal_bound_attained,
    divisors,
    euler_phi,
    factorize,
    moebius,
    ramanujan_sum,
)
from .config import DEFAULT_CAPS
from .foulkes import (
    _ell_terms,
    check_positivity,
    quick_reject,
    rnu_ell_expansion,
    rnu_schur_expansion,
    sign_multiplicity,
    swanson_vanishing_check,
    trivial_multiplicity,
    y_coefficient,
    y_coefficient_structural,
    y_coefficient_structural_detail,
)
from .ramat import (
    build_matrix,
    key_moebius_identity_check,
    row_sum_direct,
    row_sum_fgk,
    signed_trace,
    trace,
)
from .reference import (
    reference_ell_expansions,
    reference_phi_expansions,
    reference_positivity_table,
    reference_table_ns,
    reference_table_u_max,
)
from .symfunc import conjugate, maj_distribution, partition_list

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _bound(max_n: Optional[int], default: int) -> int:
    return default if max_n is None else max_n


def _ok(name: str, detail: str) -> CheckResult:
    return CheckResult(name, True, detail)


def _fail(name: str, detail: str) -> CheckResult:
    return CheckResult(name, False, detail)


# ---------------------------------------------------------------- arith


def check_ramanujan_brute_force(max_n=None):
    # Kluyver's formula c_d(r) = sum over e | gcd(d, r) of e * mu(d/e),
    # exact and independent of the von Sterneck evaluation.
    name = "ramanujan-brute-force"
    limit = _bound(max_n, 60)
    for d in range(1, limit + 1):
        for r in range(1, limit + 1):
            kluyver = sum(e * moebius(d // e) for e in divisors(gcd(d, r)))
            if kluyver != ramanujan_sum(d, r):
                return _fail(name, f"mismatch at d={d}, r={r}")
    return _ok(name, f"d, r <= {limit}")


def check_ramanujan_multiplicativity(max_n=None):
    name = "ramanujan-multiplicativity"
    limit = _bound(max_n, 200)
    rng = random.Random(20260825)
    trials = 0
    while trials < 2000:
        m = rng.randint(1, limit)
        n = rng.randint(1, limit)
        x = rng.randint(1, limit)
        y = rng.randint(1, limit)
        if gcd(m * x, n * y) != 1:
            continue
        trials += 1
        if ramanujan_sum(m * n, x * y) != ramanujan_sum(m, x) * ramanujan_sum(n, y):
            return _fail(name, f"mismatch at m={m}, n={n}, x={x}, y={y}")
    return _ok(name, f"2000 coprime tuples, entries <= {limit}")


def check_ramanujan_special_cases(max_n=None):
    name = "ramanujan-special-cases"
    limit = _bound(max_n, 500)
    for d in range(1, limit + 1):
        mu = moebius(d)
        phi = euler_phi(d)
        for r in range(1, min(d, 6) + 1):
            if gcd(d, r) == 1 and ramanujan_sum(d, r) != mu:
                return _fail(name, f"coprime case fails at d={d}, r={r}")
        for mult in (1, 2, 3):
            if ramanujan_sum(d, mult * d) != phi:
                return _fail(name, f"divisible case fails at d={d}, r={mult * d}")
    return _ok(name, f"d <= {limit}")


def check_ramanujan_bound(max_n=None):
    name = "ramanujan-bound"
    limit = _bound(max_n, 500)
    for d in range(1, limit + 1):
        phi = euler_phi(d)
        for r in range(1, d + 1):
            c = ramanujan_sum(d, r)
            if abs(c) > phi:
                return _fail(name, f"|c_{d}({r})| = {abs(c)} > phi = {phi}")
            if (abs(c) == phi) != diagonal_bound_attained(d, r):
                return _fail(name, f"equality characterization fails at d={d}, r={r}")
    return _ok(name, f"d <= {limit}, all residues")


# ---------------------------------------------------------------- matrix


def check_matrix_square(max_n=None):
    name = "matrix-square"
    limit = _bound(max_n, 200)
    for n in range(1, limit + 1):
        m = build_matrix(n)
        size = m.size
        for i in range(size):
            for j in range(size):
                v = sum(m.rows[i][k] * m.rows[k][j] for k in range(size))
                if v != (n if i == j else 0):
                    return _fail(name, f"M^2 != nI at n={n}, entry ({i},{j}) = {v}")
    return _ok(name, f"n <= {limit}")


def check_matrix_entry_sum(max_n=None):
    name = "matrix-entry-sum"
    limit = _bound(max_n, 200)
    for n in range(1, limit + 1):
        m = build_matrix(n)
        total = sum(sum(row) for row in m.rows)
        if total != n:
            return _fail(name, f"entry sum {total} != {n}")
    return _ok(name, f"n <= {limit}")


def check_trace_formula(max_n=None):
    name = "trace-formula"
    limit = _bound(max_n, 10000)
    for n in range(1, limit + 1):
        direct = sum(ramanujan_sum(d, n // d) for d in divisors(n))
        if trace(n) != direct:
            return _fail(name, f"trace mismatch at n={n}: {trace(n)} != {direct}")
    return _ok(name, f"n <= {limit}")


def check_signed_trace_formula(max_n=None):
    name = "signed-trace-formula"
    limit = _bound(max_n, 10000)
    for n in range(2, limit + 1, 2):
        direct = sum(
            ramanujan_sum(d, n // d) * (1 if (n // d) % 2 == 0 else -1) for d in divisors(n)
        )
        if signed_trace(n) != direct:
            return _fail(name, f"signed trace mismatch at n={n}: {signed_trace(n)} != {direct}")
    return _ok(name, f"even n <= {limit}")


def check_row_sum_product_formula(max_n=None):
    name = "row-sum-product-formula"
    limit = _bound(max_n, 5000)
    for n in range(1, limit + 1):
        for d in divisors(n):
            if row_sum_fgk(n, d) != row_sum_direct(n, d):
                return _fail(name, f"row sum mismatch at n={n}, d={d}")
    return _ok(name, f"n <= {limit}, all d | n")


def check_row_sum_vanishing(max_n=None):
    name = "row-sum-vanishing"
    limit = _bound(max_n, 5000)
    for n in range(1, limit + 1):
        for d in divisors(n):
            a = row_sum_fgk(n, d)
            if a < 0:
                return _fail(name, f"negative row sum at n={n}, d={d}")
            should_vanish = n % 2 == 0 and (n // d) % 2 == 1
            if (a == 0) != should_vanish:
                return _fail(name, f"vanishing characterization fails at n={n}, d={d}: a={a}")
    return _ok(name, f"n <= {limit}, all d | n")


def check_moebius_row_identity(max_n=None):
    name = "moebius-row-identity"
    limit = _bound(max_n, 500)
    for n in range(1, limit + 1):
        for d in divisors(n):
            if not key_moebius_identity_check(n, d):
                return _fail(name, f"identity fails at n={n}, d={d}")
    return _ok(name, f"n <= {limit}, all d | n")


# ---------------------------------------------------------------- foulkes


def check_basis_round_trip(max_n=None):
    name = "basis-round-trip"
    limit = _bound(max_n, 20)
    for n in range(1, limit + 1):
        for u in range(0, 5):
            ell = rnu_ell_expansion(n, u)
            schur = rnu_schur_expansion(n, u, cap=max(limit, DEFAULT_CAPS.schur_degree))
            combined: dict = {}
            for k, w in ell.coeffs.items():
                for lam, mult in _ell_terms(n, gcd(n, k)).items():
                    combined[lam] = combined.get(lam, 0) + w * mult
            combined = {lam: c for lam, c in combined.items() if c}
            if combined != schur.terms:
                return _fail(name, f"bases disagree at n={n}, u={u}")
    return _ok(name, f"n <= {limit}, u <= 4")


def check_y0_row_sums(max_n=None):
    name = "y0-row-sums"
    limit = _bound(max_n, 500)
    for n in range(1, limit + 1):
        for k in divisors(n):
            if y_coefficient(n, k, 0) != row_sum_fgk(n, k):
                return _fail(name, f"Y_0 != row sum at n={n}, k={k}")
    return _ok(name, f"n <= {limit}, all k | n")


def check_ell_u0_coefficient_sum(max_n=None):
    name = "ell-u0-coefficient-sum"
    limit = _bound(max_n, 500)
    for n in range(1, limit + 1):
        total = sum(rnu_ell_expansion(n, 0).coeffs.values())
        if total != n:
            return _fail(name, f"coefficient sum {total} != {n}")
    return _ok(name, f"n <= {limit}")


def check_y_nonneg_u01(max_n=None):
    name = "y-nonneg-u01"
    limit = _bound(max_n, 500)
    for n in range(1, limit + 1):
        for u in (0, 1):
            for k in divisors(n):
                if y_coefficient(n, k, u) < 0:
                    return _fail(name, f"negative Y at n={n}, k={k}, u={u}")
    return _ok(name, f"n <= {limit}, u in {{0, 1}}")


def check_y_structural_vs_direct(max_n=None):
    name = "y-structural-vs-direct"
    limit = _bound(max_n, 1000)
    for n in range(1, limit + 1):
        for k in divisors(n):
            for u in (0, 1):
                detail = y_coefficient_structural_detail(n, k, u)
                if detail.value != y_coefficient(n, k, u):
                    return _fail(name, f"structural mismatch at n={n}, k={k}, u={u}")
                if not detail.fully_structural:
                    return _fail(name, f"unexpected fallback at n={n}, k={k}, u={u}")
    for n in range(1, min(limit, 200) + 1):
        for k in divisors(n):
            for u in (2, 3):
                if y_coefficient_structural(n, k, u) != y_coefficient(n, k, u):
                    return _fail(name, f"structural mismatch at n={n}, k={k}, u={u}")
    return _ok(name, f"u <= 1 for n <= {limit}; u in {{2, 3}} for n <= {min(limit, 200)}")


def check_conjugation_symmetry(max_n=None):
    name = "conjugation-symmetry"
    limit = _bound(max_n, 15)
    for n in range(1, limit + 1, 2):
        expansion = rnu_schur_expansion(n, 1, cap=max(limit, DEFAULT_CAPS.schur_degree))
        for lam, c in expansion.terms.items():
            if expansion.terms.get(conjugate(lam), 0) != c:
                return _fail(name, f"conjugate coefficient differs at n={n}, shape={lam}")
    return _ok(name, f"odd n <= {limit}, u = 1")


def check_all_irreducibles_u0(max_n=None):
    name = "all-irreducibles-u0"
    limit = _bound(max_n, 14)
    for n in range(1, limit + 1):
        expansion = rnu_schur_expansion(n, 0, cap=max(limit, DEFAULT_CAPS.schur_degree))
        missing_sign = n % 4 == 2
        for lam in partition_list(n):
            c = expansion.terms.get(lam, 0)
            if lam == (1,) * n and missing_sign:
                if c != 0:
                    return _fail(name, f"sign coefficient {c} != 0 at n={n}")
            elif c <= 0:
                return _fail(name, f"nonpositive coefficient {c} at n={n}, shape={lam}")
    return _ok(name, f"n <= {limit}")


def check_trivial_multiplicity(max_n=None):
    name = "trivial-multiplicity"
    limit = _bound(max_n, 20)
    for n in range(1, limit + 1):
        for u in range(0, 7):
            expansion = rnu_schur_expansion(n, u, cap=max(limit, DEFAULT_CAPS.schur_degree))
            if expansion.terms.get((n,), 0) != trivial_multiplicity(n, u):
                return _fail(name, f"trivial coefficient mismatch at n={n}, u={u}")
            if expansion.terms.get((1,) * n, 0) != sign_multiplicity(n, u):
                return _fail(name, f"sign coefficient mismatch at n={n}, u={u}")
    return _ok(name, f"n <= {limit}, u <= 6")


def check_dual_foulkes(max_n=None):
    name = "dual-foulkes-maj"
    limit = _bound(max_n, 12)
    for n in range(1, limit + 1):
        maj_by_shape = {
            lam: maj_distribution(lam, cap=max(limit, DEFAULT_CAPS.maj_degree))
            for lam in partition_list(n)
        }
        for r in range(1, n + 1):
            mults = _ell_terms(n, gcd(n, r))
            for lam in partition_list(n):
                if mults.get(lam, 0) != maj_by_shape[lam].count(r):
                    return _fail(name, f"routes disagree at n={n}, r={r}, shape={lam}")
    return _ok(name, f"n <= {limit}, all shapes and labels")


def check_swanson(max_n=None):
    name = "swanson-vanishing"
    limit = _bound(max_n, 12)
    for n in range(2, limit + 1):
        violations = swanson_vanishing_check(n, cap=max(limit, DEFAULT_CAPS.maj_degree))
        if violations:
            v = violations[0]
            return _fail(name, f"violation at n={n}: shape={v.shape}, r={v.r}")
    return _ok(name, f"2 <= n <= {limit}")


def check_quick_reject_consistency(max_n=None):
    name = "quick-reject-consistency"
    limit = _bound(max_n, 20)
    for n in range(1, limit + 1):
        for u in range(0, 9):
            if quick_reject(n, u) is None:
                continue
            expansion = rnu_schur_expansion(n, u, cap=max(limit, DEFAULT_CAPS.schur_degree))
            if min(expansion.terms.values()) >= 0:
                return _fail(name, f"quick_reject contradicts positivity at n={n}, u={u}")
    return _ok(name, f"n <= {limit}, u <= 8")


# ---------------------------------------------------------------- reference values


def check_phi_expansions(max_n=None):
    name = "reference-phi-expansions"
    count = 0
    for n, expected in reference_phi_expansions().items():
        if max_n is not None and n > max_n:
            continue
        if rnu_schur_expansion(n, 0).terms != expected:
            return _fail(name, f"R({n}, 0) does not match the reference expansion")
        count += 1
    return _ok(name, f"{count} expansions")


def check_ell_examples(max_n=None):
    name = "reference-ell-expansions"
    count = 0
    for (n, u), expected in reference_ell_expansions().items():
        if max_n is not None and n > max_n:
            continue
        if rnu_ell_expansion(n, u).coeffs != expected:
            return _fail(name, f"R({n}, {u}) ell expansion does not match the reference")
        count += 1
    return _ok(name, f"{count} expansions")


def check_positivity_table(max_n=None):
    """Recompute the full verdict grid and compare cell by cell.

    Also confirms quick_reject never fires on a cell the reference marks
    positive.
    """
    name = "reference-positivity-table"
    expected = reference_positivity_table()
    ns = [n for n in reference_table_ns() if max_n is None or n <= max_n]
    mismatches = []
    reject_conflicts = []
    for n in ns:
        for u in range(0, reference_table_u_max() + 1):
            verdict = check_positivity(n, u).schur_positive
            if verdict != expected[(n, u)]:
                mismatches.append((n, u, verdict))
            if expected[(n, u)] and quick_reject(n, u) is not None:
                reject_conflicts.append((n, u))
    if mismatches:
        return _fail(name, f"cells disagree with the reference: {mismatches}")
    if reject_conflicts:
        return _fail(name, f"quick_reject fired on positive cells: {reject_conflicts}")
    return _ok(name, f"{len(ns)} columns, u <= {reference_table_u_max()}")


SUITES: dict[str, list[Callable]] = {
    "arith": [
        check_ramanujan_brute_force,
        check_ramanujan_multiplicativity,
        check_ramanujan_special_cases,
        check_ramanujan_bound,
    ],
    "matrix": [
        check_matrix_square,
        check_matrix_entry_sum,
        check_trace_formula,
        check_signed_trace_formula,
        check_row_sum_product_formula,
        check_row_sum_vanishing,
        check_moebius_row_identity,
    ],
    "foulkes": [
        check_basis_round_trip,
        check_y0_row_sums,
        check_ell_u0_coefficient_sum,
        check_y_nonneg_u01,
        check_y_structural_vs_direct,
        check_conjugation_symmetry,
        check_all_irreducibles_u0,
        check_trivial_multiplicity,
        check_dual_foulkes,
        check_swanson,
        check_quick_reject_consistency,
    ],
    "paper-values": [
        check_phi_expansions,
        check_ell_examples,
        check_positivity_table,
    ],
}

SUITE_NAMES = ("all", *SUITES)


def run_suite(suite: str, max_n: Optional[int] = None) -> list[CheckResult]:
    """Run one named suite (or all of them) and return its results."""
    if suite == "all":
        checks = [check for suite_checks in SUITES.values() for check in suite_checks]
    else:
        try:
            checks = SUITES[suite]
        except KeyError:
            raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}") from None
    return [check(max_n) for check in checks]
