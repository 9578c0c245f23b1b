import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramschur.arith import divisors
from ramschur.errors import CapExceeded
from ramschur.symfunc import (
    SchurExpansion,
    _rectangle_terms,
    conjugate,
    hook_lengths,
    is_partition,
    maj_distribution,
    partition_list,
    partitions_of,
    power_sum_rectangle_expansion,
    syt_count,
)

from helpers import (
    addable_strips,
    border_strips_brute,
    enumerate_syt_maj,
    multiply_by_power_sum,
    partition_count,
    partitions_brute,
    power_sum_chain,
    syt_count_product,
)

small_partitions = st.lists(st.integers(1, 10), max_size=8).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


class TestPartitions:
    def test_zero(self):
        assert list(partitions_of(0)) == [()]

    def test_reverse_lex_order(self):
        assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        seq = list(partitions_of(8))
        assert seq == sorted(seq, reverse=True)

    def test_counts_match_recurrence(self):
        for n in (1, 5, 10, 20, 30):
            assert len(partition_list(n)) == partition_count(n)
        assert len(partition_list(45)) == 89134

    def test_all_valid(self):
        for lam in partitions_of(12):
            assert is_partition(lam)
            assert sum(lam) == 12

    def test_cap(self):
        with pytest.raises(CapExceeded):
            list(partitions_of(46))
        assert next(iter(partitions_of(46, cap=50))) == (46,)
        with pytest.raises(ValueError):
            list(partitions_of(-1))


class TestConjugate:
    def test_examples(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate((4,)) == (1, 1, 1, 1)
        assert conjugate(()) == ()
        assert conjugate((2, 2)) == (2, 2)

    @given(small_partitions)
    @settings(max_examples=200)
    def test_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam

    @given(small_partitions)
    @settings(max_examples=100)
    def test_preserves_size(self, lam):
        assert sum(conjugate(lam)) == sum(lam)

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            conjugate((1, 3))


class TestHooksAndSyt:
    def test_hooks(self):
        assert sorted(hook_lengths((2, 2))) == [1, 2, 2, 3]
        assert sorted(hook_lengths((3, 1, 1))) == [1, 1, 2, 2, 5]

    def test_syt_count_examples(self):
        assert syt_count((2, 2)) == 2
        assert syt_count((3, 2)) == 5
        assert syt_count((1, 1, 1)) == 1
        assert syt_count(()) == 1

    def test_syt_count_against_product_formula(self):
        for n in range(1, 11):
            for lam in partition_list(n):
                assert syt_count(lam) == syt_count_product(lam)


class TestBorderStrips:
    # The strip engine is the oracle for the rectangle characters; these
    # tests keep it honest against direct skew-diagram geometry.
    def test_strip_addition_matches_geometry(self):
        for m in range(0, 7):
            for mu in partitions_brute(m):
                for d in range(1, min(10 - m, 6) + 1):
                    got = set(addable_strips(mu, d))
                    assert got == border_strips_brute(mu, d), (mu, d)

    def test_multiply_examples(self):
        empty = SchurExpansion(0, {(): 1})
        p2 = multiply_by_power_sum(empty, 2)
        assert p2.terms == {(2,): 1, (1, 1): -1}
        p2_squared = multiply_by_power_sum(p2, 2)
        assert p2_squared.terms == {
            (4,): 1,
            (3, 1): -1,
            (2, 2): 2,
            (2, 1, 1): -1,
            (1, 1, 1, 1): 1,
        }

    def test_multiply_rejects_bad_d(self):
        with pytest.raises(ValueError):
            multiply_by_power_sum(SchurExpansion(0, {(): 1}), 0)

    def test_zero_coefficients_pruned(self):
        e = SchurExpansion(1, {(1,): 1})
        out = multiply_by_power_sum(multiply_by_power_sum(e, 2), 1)
        assert all(c != 0 for c in out.terms.values())


class TestRectangleExpansions:
    def test_single_power_sum_is_hooks(self):
        assert power_sum_rectangle_expansion(4, 4).terms == {
            (4,): 1,
            (3, 1): -1,
            (2, 1, 1): 1,
            (1, 1, 1, 1): -1,
        }

    def test_d1_column_is_syt_counts(self):
        assert power_sum_rectangle_expansion(4, 1).terms == {
            (4,): 1,
            (3, 1): 3,
            (2, 2): 2,
            (2, 1, 1): 3,
            (1, 1, 1, 1): 1,
        }
        for n in range(1, 11):
            col = power_sum_rectangle_expansion(n, 1).terms
            for lam in partition_list(n):
                assert col[lam] == syt_count_product(lam)

    def test_d1_column_is_in_partition_list_order(self):
        # check_positivity's scan takes the first negative in this order as its witness
        for n in range(31):
            assert list(_rectangle_terms(n, 1)) == list(partition_list(n))

    def test_trivial_coefficient_is_one(self):
        for n, d in ((6, 2), (6, 3), (8, 4), (9, 3), (12, 6)):
            assert power_sum_rectangle_expansion(n, d).coefficient((n,)) == 1

    def test_column_weighted_sums(self):
        # sum over lambda of coeff * f^lambda is n! for d = 1 and 0 otherwise
        import math

        for n in range(1, 13):
            for d in (e for e in range(1, n + 1) if n % e == 0):
                total = sum(
                    c * syt_count(lam)
                    for lam, c in power_sum_rectangle_expansion(n, d).terms.items()
                )
                assert total == (math.factorial(n) if d == 1 else 0)

    def test_column_orthogonality(self):
        # sum over lambda of chi(d-class) * chi(e-class) = centralizer size * [d == e]
        import math

        for n in range(1, 13):
            divs = [e for e in range(1, n + 1) if n % e == 0]
            cols = {d: power_sum_rectangle_expansion(n, d).terms for d in divs}
            for d in divs:
                for e in divs:
                    total = 0
                    for lam, c in cols[d].items():
                        total += c * cols[e].get(lam, 0)
                    if d == e:
                        k = n // d
                        assert total == d**k * math.factorial(k)
                    else:
                        assert total == 0

    def test_matches_strip_oracle(self):
        for d in range(1, 25):
            chain = power_sum_chain(d)
            for k in range(1, 24 // d + 1):
                assert power_sum_rectangle_expansion(d * k, d).terms == next(chain), (d, k)

    @given(
        st.integers(1, 30).flatmap(
            lambda n: st.tuples(st.just(n), st.sampled_from(divisors(n)))
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_strip_oracle_random(self, nd):
        n, d = nd
        chain = power_sum_chain(d)
        for _ in range(n // d - 1):
            next(chain)
        assert power_sum_rectangle_expansion(n, d).terms == next(chain)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            power_sum_rectangle_expansion(6, 4)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            power_sum_rectangle_expansion(46, 46)
        assert power_sum_rectangle_expansion(46, 46, cap=46).coefficient((46,)) == 1


class TestMajDistribution:
    def test_two_two(self):
        md = maj_distribution((2, 2))
        assert md.counts == {1: 0, 2: 1, 3: 0, 4: 1}
        assert md.total == 2

    def test_single_row_and_column(self):
        md = maj_distribution((5,))
        assert md.counts == {1: 0, 2: 0, 3: 0, 4: 0, 5: 1}
        md = maj_distribution((1, 1, 1, 1))
        # the unique column tableau has maj = 1 + 2 + 3 = 6, residue 2 mod 4
        assert md.counts == {1: 0, 2: 1, 3: 0, 4: 0}

    def test_count_accessor_wraps_modulus(self):
        md = maj_distribution((2, 2))
        assert md.count(4) == 1
        assert md.count(8) == 1
        assert md.count(2) == 1
        with pytest.raises(ValueError):
            md.count(0)

    def test_against_explicit_enumeration(self):
        for n in range(1, 8):
            for lam in partition_list(n):
                md = maj_distribution(lam)
                expected = {r: 0 for r in range(1, n + 1)}
                for maj in enumerate_syt_maj(lam):
                    expected[(maj - 1) % n + 1] += 1
                assert md.counts == expected, lam

    def test_totals_are_syt_counts(self):
        for n in range(1, 12):
            for lam in partition_list(n):
                assert maj_distribution(lam).total == syt_count(lam)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            maj_distribution((15,))
        assert maj_distribution((15,), cap=15).count(15) == 1

    def test_rejects_empty_and_invalid(self):
        with pytest.raises(ValueError):
            maj_distribution(())
        with pytest.raises(ValueError):
            maj_distribution((1, 2))


class TestSchurExpansion:
    def test_prunes_zeros(self):
        e = SchurExpansion(2, {(2,): 0, (1, 1): 5})
        assert e.terms == {(1, 1): 5}

    def test_items_desc_order(self):
        e = SchurExpansion(4, {(2, 1, 1): 1, (4,): 2, (2, 2): 3})
        assert [lam for lam, _ in e.items_desc()] == [(4,), (2, 2), (2, 1, 1)]

    def test_equality(self):
        assert SchurExpansion(2, {(2,): 1}) == SchurExpansion(2, {(2,): 1, (1, 1): 0})
