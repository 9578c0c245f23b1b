from collections import Counter
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramschur import foulkes
from ramschur.arith import divisors, ramanujan_sum
from ramschur.errors import CapExceeded
from ramschur.foulkes import (
    RejectionReason,
    check_positivity,
    foulkes_schur_multiplicities,
    multiplicity_report,
    quick_reject,
    rnu_ell_expansion,
    rnu_schur_expansion,
    scalar_divisibility_check,
    sign_multiplicity,
    swanson_vanishing_check,
    trivial_multiplicity,
    y_coefficient,
    y_coefficient_structural,
    y_coefficient_structural_detail,
)
from ramschur.ramat import row_sum_fgk
from ramschur.symfunc import (
    conjugate,
    maj_distribution,
    partition_list,
    power_sum_rectangle_expansion,
    syt_count,
)

from helpers import corner_sums


class TestFoulkesMultiplicities:
    def test_n4_label4(self):
        e = foulkes_schur_multiplicities(4, 4)
        assert e.terms == {(4,): 1, (2, 2): 1, (2, 1, 1): 1}

    def test_label_normalization(self):
        # the character depends on r only through gcd(n, r)
        assert foulkes_schur_multiplicities(12, 8) == foulkes_schur_multiplicities(12, 4)
        assert foulkes_schur_multiplicities(10, 7) == foulkes_schur_multiplicities(10, 1)

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            foulkes_schur_multiplicities(6, 0)
        with pytest.raises(ValueError):
            foulkes_schur_multiplicities(6, 7)

    def test_trivial_appears_only_at_label_n(self):
        for n in range(1, 10):
            for r in range(1, n + 1):
                coeff = foulkes_schur_multiplicities(n, r).coefficient((n,))
                assert coeff == (1 if r == n else 0)

    def test_multiplicities_match_maj_counts(self):
        for n in range(1, 10):
            for r in range(1, n + 1):
                e = foulkes_schur_multiplicities(n, r)
                for lam in partition_list(n):
                    assert e.coefficient(lam) == maj_distribution(lam).count(r)

    def test_degree_sum(self):
        # Foulkes characters for r = 1..n partition the regular character
        for n in range(1, 9):
            total = {}
            for r in range(1, n + 1):
                for lam, c in foulkes_schur_multiplicities(n, r).terms.items():
                    total[lam] = total.get(lam, 0) + c
            assert total == {lam: syt_count(lam) for lam in partition_list(n)}


class TestYCoefficient:
    def test_prime_cases(self):
        for q in (2, 3, 5, 7):
            assert y_coefficient(q, q, 1) == q
            assert y_coefficient(q, 1, 1) == 0

    def test_examples(self):
        assert y_coefficient(9, 1, 1) == 3
        assert y_coefficient(4, 4, 1) == 0
        assert y_coefficient(4, 1, 1) == 2
        assert y_coefficient(4, 2, 1) == 2

    def test_u0_is_row_sum(self):
        for n in range(1, 201):
            for k in divisors(n):
                assert y_coefficient(n, k, 0) == row_sum_fgk(n, k)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            y_coefficient(6, 4, 1)
        with pytest.raises(ValueError):
            y_coefficient(6, 2, -1)

    def test_zero_power_convention(self):
        # c_d(n/d)^0 = 1 even when the base vanishes, so Y_0 sums all columns
        n = 8  # c_8(1) = 0 yet d = 8 still contributes at u = 0
        assert y_coefficient(8, 1, 0) == sum(ramanujan_sum(1, 8 // d) for d in divisors(8))


class TestYStructural:
    def test_examples(self):
        assert y_coefficient_structural(27, 9, 1) == 27
        assert y_coefficient_structural(9, 3, 1) == 6
        assert y_coefficient_structural(12, 12, 1) == 0

    def test_matches_direct_u01(self):
        for n in range(1, 301):
            for k in divisors(n):
                for u in (0, 1):
                    detail = y_coefficient_structural_detail(n, k, u)
                    assert detail.value == y_coefficient(n, k, u)
                    assert detail.fully_structural

    def test_matches_direct_higher_u(self):
        for n in range(1, 151):
            for k in divisors(n):
                for u in (2, 3, 4):
                    assert y_coefficient_structural(n, k, u) == y_coefficient(n, k, u)

    def test_fallback_flagged(self):
        detail = y_coefficient_structural_detail(8, 2, 2)
        assert not detail.fully_structural
        assert detail.fallback_blocks == (8,)
        # square-free blocks never fall back
        assert y_coefficient_structural_detail(30, 6, 5).fully_structural

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=0, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_random(self, n, u):
        for k in divisors(n):
            assert y_coefficient_structural(n, k, u) == y_coefficient(n, k, u)


class TestRnuEllExpansion:
    def test_reference_examples(self):
        assert rnu_ell_expansion(8, 2).coeffs == {8: 6, 4: 6, 2: -4}
        assert rnu_ell_expansion(9, 2).coeffs == {9: 5, 3: 10, 1: -6}

    def test_squarefree_collapses_to_single_character(self):
        # for square-free n at u = 1, c_d(n/d) = mu(d) and the Moebius
        # identity kills every label except k = 1
        for n in (1, 2, 3, 5, 6, 10, 15, 30):
            assert rnu_ell_expansion(n, 1).coeffs == {1: n}

    def test_u0_coefficient_sum_is_n(self):
        for n in range(1, 201):
            assert sum(rnu_ell_expansion(n, 0).coeffs.values()) == n

    def test_u0_coefficients_are_row_sums(self):
        for n in (12, 24, 36):
            e = rnu_ell_expansion(n, 0)
            for k in divisors(n):
                assert e.coefficient(k) == row_sum_fgk(n, n // k)

    def test_coefficient_accessor_defaults_to_zero(self):
        assert rnu_ell_expansion(8, 2).coefficient(1) == 0

    def test_matches_direct_sum(self):
        for n in range(1, 401):
            for u in range(7):
                e = rnu_ell_expansion(n, u)
                for k in divisors(n):
                    assert e.coefficient(k) == y_coefficient(n, n // k, u), (n, u, k)

    @pytest.mark.parametrize("n", [720720, 21621600])
    def test_matches_structural_highly_composite(self, n):
        for u in (0, 1, 2, 7):
            e = rnu_ell_expansion(n, u)
            for k in divisors(n):
                assert e.coefficient(k) == y_coefficient_structural(n, n // k, u), (u, k)


class TestRnuSchurExpansion:
    def test_phi_4(self):
        assert rnu_schur_expansion(4, 0).terms == {
            (4,): 3,
            (3, 1): 1,
            (2, 2): 4,
            (2, 1, 1): 3,
            (1, 1, 1, 1): 1,
        }

    def test_phi_6_spot_values(self):
        e = rnu_schur_expansion(6, 0)
        assert e.coefficient((5, 1)) == 2
        assert e.coefficient((1,) * 6) == 0

    def test_n1(self):
        assert rnu_schur_expansion(1, 5).terms == {(1,): 1}

    def test_r93_is_p1_plus_8_p3(self):
        got = rnu_schur_expansion(9, 3)
        col1 = power_sum_rectangle_expansion(9, 1).terms
        col3 = power_sum_rectangle_expansion(9, 3).terms
        expected = {}
        for lam in set(col1) | set(col3):
            c = col1.get(lam, 0) + 8 * col3.get(lam, 0)
            if c:
                expected[lam] = c
        assert got.terms == expected
        assert got.coefficient((9,)) == 9
        assert got.coefficient((8, 1)) == 0
        assert got.coefficient((1,) * 9) == 9

    def test_corner_multiplicities(self):
        for n in range(1, 15):
            for u in range(0, 5):
                e = rnu_schur_expansion(n, u)
                assert e.coefficient((n,)) == trivial_multiplicity(n, u)
                assert e.coefficient((1,) * n) == sign_multiplicity(n, u)

    def test_hook_coefficients(self):
        for n in range(3, 15):
            for u in range(0, 5):
                e = rnu_schur_expansion(n, u)
                report = multiplicity_report(n, u)
                assert e.coefficient((n - 1, 1)) == report.hook_n_minus_1_1
                assert e.coefficient((2,) + (1,) * (n - 2)) == report.hook_2_ones

    def test_conjugation_symmetry_odd_n(self):
        for n in (3, 5, 7, 9, 11, 13):
            e = rnu_schur_expansion(n, 1)
            for lam, c in e.terms.items():
                assert e.terms.get(conjugate(lam), 0) == c

    def test_all_irreducibles_u0(self):
        for n in range(1, 13):
            e = rnu_schur_expansion(n, 0)
            for lam in partition_list(n):
                if lam == (1,) * n and n % 4 == 2:
                    assert e.coefficient(lam) == 0
                else:
                    assert e.coefficient(lam) > 0

    def test_basis_round_trip(self):
        for n in range(1, 13):
            for u in range(0, 4):
                ell = rnu_ell_expansion(n, u)
                combined = {}
                for k, w in ell.coeffs.items():
                    for lam, c in foulkes_schur_multiplicities(n, gcd(n, k)).terms.items():
                        combined[lam] = combined.get(lam, 0) + w * c
                combined = {lam: c for lam, c in combined.items() if c}
                assert combined == rnu_schur_expansion(n, u).terms

    def test_cap(self):
        with pytest.raises(CapExceeded):
            rnu_schur_expansion(46, 0)


def _first_negative(n, u):
    terms = rnu_schur_expansion(n, u).terms
    return next(((lam, terms[lam]) for lam in partition_list(n) if terms.get(lam, 0) < 0), None)


class TestPositivity:
    def test_negative_with_witness(self):
        v = check_positivity(8, 3)
        assert not v.schur_positive
        assert not v.ell_nonneg
        assert v.witness == ((8,), -6)

    def test_positive_fast_path(self):
        v = check_positivity(6, 2)
        assert v.schur_positive and v.ell_nonneg and v.witness is None

    def test_positive_slow_path(self):
        # both stages matter: ell coefficients go negative yet R is positive
        for n, u in ((8, 2), (9, 2), (16, 3), (24, 5)):
            v = check_positivity(n, u)
            assert v.schur_positive
            assert not v.ell_nonneg
            assert v.witness is None

    def test_fast_path_ignores_the_degree_cap(self):
        # R(100, 1) = 10 l(100) + 10 l(50) + 40 l(20) + 40 l(10): no expansion needed
        v = check_positivity(100, 1)
        assert v.schur_positive and v.ell_nonneg and v.witness is None

    def test_cap_guards_the_expansion(self):
        # neither ell nor the certificate decides (50, 3), so only the scan can
        assert min(rnu_ell_expansion(50, 3).coeffs.values()) < 0
        with pytest.raises(CapExceeded):
            check_positivity(50, 3)

    def test_witness_is_first_reverse_lex(self):
        v = check_positivity(9, 4)
        assert not v.schur_positive
        lam, coeff = v.witness
        assert coeff < 0
        e = rnu_schur_expansion(9, 4)
        for earlier in partition_list(9):
            if earlier == lam:
                break
            assert e.coefficient(earlier) >= 0

    @given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_verdict_invariants(self, n, u):
        # the staged decision against the full expansion, witness included
        v = check_positivity(n, u)
        if v.ell_nonneg:
            assert v.schur_positive
        assert (v.route == "ell") == v.ell_nonneg
        assert v.schur_positive == all(c >= 0 for c in rnu_schur_expansion(n, u).terms.values())
        assert v.witness == _first_negative(n, u)

    @pytest.mark.parametrize(
        "n, u, route, positive",
        [(6, 2, "ell", True), (8, 3, "certificate", False), (24, 11, "scan", False),
         (8, 2, "scan", True)],
    )
    def test_routes(self, n, u, route, positive):
        # the witness of (8, 3) is the first shape, that of (24, 11) the eighth, (20, 4)
        v = check_positivity(n, u)
        assert (v.route, v.schur_positive) == (route, positive)
        assert v.witness == _first_negative(n, u)


def _corners(n):
    return {(n,), (n - 1, 1), (2,) + (1,) * (n - 2), (1,) * n}


class TestCertificate:
    def test_agrees_with_the_expansion(self):
        routes = Counter()
        for n in range(1, 31):
            for u in range(9):
                v = check_positivity(n, u)
                routes[v.route, v.schur_positive] += 1
                assert v.witness == _first_negative(n, u), (n, u)
                assert v.schur_positive == (v.witness is None), (n, u)
        assert routes["certificate", True] and routes["certificate", False]

    def test_rasala_minimal_degree(self):
        for n in range(4, 31):
            least = min(syt_count(lam) for lam in partition_list(n) if lam not in _corners(n))
            if n >= 9:
                assert least == foulkes._rasala_degree(n) == n * (n - 3) // 2, n
            else:
                assert foulkes._rasala_degree(n) is None
            if n == 8:
                # (4, 4) has 14 tableaux, below 8 * 5 / 2 = 20
                assert least == syt_count((4, 4)) == 14

    def test_fomin_lulov_in_integers(self):
        # |chi^lambda(d^k)|^d n! <= (k! d^k)^d f^lambda
        for n in range(1, 25):
            for d in divisors(n):
                k = n // d
                scale = (factorial(k) * d**k) ** d
                for lam, chi in power_sum_rectangle_expansion(n, d).terms.items():
                    assert abs(chi) ** d * factorial(n) <= scale * syt_count(lam), (n, d, lam)

    @given(st.integers(min_value=0, max_value=2**300), st.integers(min_value=1, max_value=60))
    @settings(max_examples=300, deadline=None)
    def test_ceil_root_is_least(self, x, d):
        r = foulkes._ceil_root(x, d)
        assert r**d >= x
        assert r == 0 or (r - 1) ** d < x

    def test_ceil_root_examples(self):
        assert [foulkes._ceil_root(x, 3) for x in (0, 1, 2, 8, 9, 27, 28)] == [0, 1, 2, 2, 3, 3, 4]

    def test_r_n_2_is_decided_without_the_scan(self):
        # the paper's open case u = 2, from n = 10 up
        for n in range(10, 501):
            v = check_positivity(n, 2)
            assert v.schur_positive and v.route in ("ell", "certificate"), n


class TestCorners:
    def test_agree_with_the_divisor_sums(self):
        for n in range(1, 401):
            for u in range(9):
                t, s = corner_sums(n, u)
                assert (trivial_multiplicity(n, u), sign_multiplicity(n, u)) == (t, s), (n, u)
                if t < 0 or t > n:
                    expected = RejectionReason(n, u, "trivial", t)
                elif s < 0 or s > n:
                    expected = RejectionReason(n, u, "sign", s)
                else:
                    expected = None
                assert quick_reject(n, u) == expected, (n, u)
                if n >= 2:
                    report = multiplicity_report(n, u)
                    assert (report.trivial, report.sign) == (t, s), (n, u)
                    assert (report.hook_n_minus_1_1, report.hook_2_ones) == (n - t, n - s), (n, u)

    @pytest.mark.parametrize("corner", [trivial_multiplicity, sign_multiplicity, quick_reject])
    @pytest.mark.parametrize("n, u", [(0, 2), (6, -1)])
    def test_reject_bad_input(self, corner, n, u):
        with pytest.raises(ValueError):
            corner(n, u)


class TestQuickReject:
    def test_examples(self):
        reason = quick_reject(8, 3)
        assert reason is not None
        assert reason.which == "trivial" and reason.value == -6
        reason = quick_reject(9, 4)
        assert reason is not None
        assert reason.which == "trivial" and reason.value == 17
        assert quick_reject(6, 2) is None

    def test_sound_on_small_range(self):
        # against the expansion: check_positivity reads the same corners
        for n in range(1, 19):
            for u in range(0, 7):
                if quick_reject(n, u) is not None:
                    assert min(rnu_schur_expansion(n, u).terms.values()) < 0, (n, u)

    def test_inconclusive_cells_exist(self):
        # None never certifies positivity
        assert quick_reject(8, 3) is not None
        assert quick_reject(24, 11) is None
        assert not check_positivity(24, 11).schur_positive


class TestScalarDivisibility:
    def test_example_n12(self):
        s = scalar_divisibility_check(12)
        assert (s.odd_part, s.even_part, s.scalar) == (3, 4, 6)
        assert s.divides

    def test_squarefree_scalar_is_n(self):
        for n in (2, 6, 30):
            s = scalar_divisibility_check(n)
            assert s.scalar == n
            assert s.divides
            # the quotient is exactly the label-1 Foulkes character
            e = rnu_schur_expansion(n, 1)
            quotient = foulkes_schur_multiplicities(n, 1)
            assert {lam: c // n for lam, c in e.terms.items()} == quotient.terms

    def test_n9(self):
        s = scalar_divisibility_check(9)
        assert s.scalar == 3
        assert s.divides

    def test_sweep(self):
        for n in range(1, 26):
            assert scalar_divisibility_check(n).divides


class TestMultiplicityReport:
    def test_u0_examples(self):
        r = multiplicity_report(4, 0)
        assert (r.trivial, r.sign) == (3, 1)
        assert (r.hook_n_minus_1_1, r.hook_2_ones) == (1, 3)
        assert r.restriction_regular_copies == 4
        assert multiplicity_report(6, 0).sign == 0

    def test_u1_trivial_is_tau_like(self):
        assert multiplicity_report(9, 1).trivial == 3

    def test_restriction_only_low_u(self):
        assert multiplicity_report(10, 1).restriction_regular_copies == 10
        assert multiplicity_report(10, 2).restriction_regular_copies is None

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            multiplicity_report(1, 0)


class TestSwanson:
    def test_small_range_clean(self):
        for n in range(2, 11):
            assert swanson_vanishing_check(n) == []

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            swanson_vanishing_check(1)
        with pytest.raises(CapExceeded):
            swanson_vanishing_check(15)
        assert swanson_vanishing_check(15, cap=15) == []
