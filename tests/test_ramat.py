import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramschur.arith import divisors, ramanujan_sum
from ramschur.ramat import (
    build_matrix,
    key_moebius_identity_check,
    moebius_weighted_row_sum,
    row_sum_direct,
    row_sum_fgk,
    row_sums,
    signed_trace,
    trace,
)


class TestBuildMatrix:
    def test_n_equals_one(self):
        m = build_matrix(1)
        assert m.divisors == (1,)
        assert m.rows == ((1,),)

    def test_n_four(self):
        m = build_matrix(4)
        assert m.divisors == (1, 2, 4)
        assert m.rows == ((1, 1, 1), (1, 1, -1), (2, -2, 0))

    @pytest.mark.parametrize("ns", [range(1, 401), [720720]], ids=["n<=400", "720720"])
    def test_matches_entrywise(self, ns):
        for n in ns:
            m = build_matrix(n)
            divs = divisors(n)
            assert m.divisors == divs
            assert m.rows == tuple(tuple(ramanujan_sum(di, n // dj) for dj in divs) for di in divs)

    def test_n_six_trace(self):
        m = build_matrix(6)
        assert sum(m.rows[i][i] for i in range(m.size)) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_matrix(0)

    def test_square_and_entry_sum(self):
        for n in range(1, 61):
            m = build_matrix(n)
            size = m.size
            for i in range(size):
                for j in range(size):
                    v = sum(m.rows[i][k] * m.rows[k][j] for k in range(size))
                    assert v == (n if i == j else 0)
            assert sum(sum(row) for row in m.rows) == n


class TestTrace:
    def test_examples(self):
        assert trace(9) == 3
        assert trace(6) == 0
        assert trace(1) == 1
        assert trace(36) == 6

    def test_matches_direct(self):
        for n in range(1, 401):
            direct = sum(ramanujan_sum(d, n // d) for d in divisors(n))
            assert trace(n) == direct

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=150)
    def test_matches_direct_random(self, n):
        direct = sum(ramanujan_sum(d, n // d) for d in divisors(n))
        assert trace(n) == direct


class TestSignedTrace:
    def test_examples(self):
        assert signed_trace(4) == 2
        assert signed_trace(18) == 6
        assert signed_trace(12) == 0
        assert signed_trace(2) == 2

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            signed_trace(9)

    def test_matches_direct(self):
        for n in range(2, 401, 2):
            direct = sum(
                ramanujan_sum(d, n // d) * (1 if (n // d) % 2 == 0 else -1)
                for d in divisors(n)
            )
            assert signed_trace(n) == direct

    @given(st.integers(min_value=1, max_value=5 * 10**5))
    @settings(max_examples=150)
    def test_matches_direct_random(self, half):
        n = 2 * half
        direct = sum(
            ramanujan_sum(d, n // d) * (1 if (n // d) % 2 == 0 else -1) for d in divisors(n)
        )
        assert signed_trace(n) == direct


class TestRowSums:
    def test_examples(self):
        assert row_sum_fgk(4, 1) == 3
        assert row_sum_fgk(4, 2) == 1
        assert row_sum_fgk(6, 2) == 0
        assert row_sum_fgk(6, 1) == 4
        assert row_sum_fgk(6, 6) == 0
        assert row_sum_fgk(9, 3) == 3

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            row_sum_fgk(6, 4)
        with pytest.raises(ValueError):
            row_sum_direct(6, 5)

    def test_product_matches_direct(self):
        for n in range(1, 301):
            for d in divisors(n):
                assert row_sum_fgk(n, d) == row_sum_direct(n, d)

    def test_nonnegative_and_vanishing(self):
        for n in range(1, 301):
            for d in divisors(n):
                a = row_sum_fgk(n, d)
                assert a >= 0
                assert (a == 0) == (n % 2 == 0 and (n // d) % 2 == 1)

    def test_row_sums_map(self):
        assert row_sums(6) == {1: 4, 2: 0, 3: 2, 6: 0}
        assert row_sums(1) == {1: 1}

    @given(st.integers(min_value=1, max_value=10**5))
    @settings(max_examples=100, deadline=None)
    def test_product_matches_direct_random(self, n):
        for d in divisors(n):
            assert row_sum_fgk(n, d) == row_sum_direct(n, d)


class TestMoebiusIdentity:
    def test_examples(self):
        assert moebius_weighted_row_sum(12, 12) == 12
        assert moebius_weighted_row_sum(12, 6) == 0
        assert key_moebius_identity_check(12, 12)
        assert key_moebius_identity_check(12, 6)
        assert key_moebius_identity_check(1, 1)

    def test_sweep(self):
        for n in range(1, 201):
            for d in divisors(n):
                assert key_moebius_identity_check(n, d)
