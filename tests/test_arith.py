import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramschur.arith import (
    DiagonalClassification,
    classify_diagonal,
    diagonal_bound_attained,
    divisors,
    euler_phi,
    factorize,
    is_perfect_square,
    is_prime,
    moebius,
    ramanujan_sum,
    ramanujan_sum_prime_power,
    tau,
)
from ramschur.errors import CapExceeded

from helpers import brute_force_ramanujan


class TestFactorize:
    def test_examples(self):
        assert factorize(1).factors == ()
        assert factorize(12).factors == ((2, 2), (3, 1))
        assert factorize(45).factors == ((3, 2), (5, 1))
        assert factorize(999983).factors == ((999983, 1),)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-5)
        with pytest.raises(CapExceeded):
            factorize(10**12 + 1)

    def test_large_boundary(self):
        f = factorize(10**12)
        assert f.factors == ((2, 12), (5, 12))

    @given(st.integers(min_value=1, max_value=10**7))
    @settings(max_examples=200)
    def test_product_reconstructs(self, n):
        f = factorize(n)
        prod = 1
        for p, a in f.factors:
            assert is_prime(p)
            prod *= p**a
        assert prod == n

    def test_primes_ascending(self):
        for n in (2, 30, 360, 9699690):
            primes = factorize(n).primes()
            assert list(primes) == sorted(primes)


class TestClassicalFunctions:
    def test_phi(self):
        assert [euler_phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]

    def test_moebius(self):
        assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_tau(self):
        assert [tau(n) for n in range(1, 11)] == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4]

    def test_divisors(self):
        assert divisors(1) == (1,)
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert divisors(45) == (1, 3, 5, 9, 15, 45)

    def test_accepts_factorization_objects(self):
        f = factorize(360)
        assert euler_phi(f) == euler_phi(360)
        assert moebius(f) == 0
        assert tau(f) == 24

    def test_rejects_zero(self):
        for fn in (euler_phi, moebius, tau, divisors):
            with pytest.raises(ValueError):
                fn(0)

    @given(st.integers(min_value=1, max_value=2000))
    @settings(max_examples=100)
    def test_phi_divisor_sum(self, n):
        assert sum(euler_phi(d) for d in divisors(n)) == n


class TestRamanujanSum:
    def test_examples(self):
        assert ramanujan_sum(4, 2) == -2
        assert ramanujan_sum(1, 7) == 1
        assert ramanujan_sum(6, 3) == -2
        assert ramanujan_sum(5, 5) == 4
        assert ramanujan_sum(9, 3) == -3

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ramanujan_sum(0, 1)
        with pytest.raises(ValueError):
            ramanujan_sum(4, 0)

    def test_brute_force_small(self):
        for d in range(1, 61):
            for r in range(1, 61):
                nearest, residual = brute_force_ramanujan(d, r)
                assert residual < 1e-6
                assert ramanujan_sum(d, r) == nearest

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200)
    def test_periodicity(self, d, r):
        assert ramanujan_sum(d, r) == ramanujan_sum(d, r + d)

    @given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=10**4))
    @settings(max_examples=200)
    def test_bound(self, d, r):
        c = ramanujan_sum(d, r)
        phi = euler_phi(d)
        assert abs(c) <= phi
        assert (abs(c) == phi) == diagonal_bound_attained(d, r)

    def test_special_cases(self):
        for d in range(1, 120):
            mu = moebius(d)
            phi = euler_phi(d)
            for r in range(1, d + 1):
                if math.gcd(d, r) == 1:
                    assert ramanujan_sum(d, r) == mu
            assert ramanujan_sum(d, d) == phi
            assert ramanujan_sum(d, 2 * d) == phi

    def test_multiplicativity_sweep(self):
        for m in range(1, 13):
            for n in range(1, 13):
                for x in range(1, 8):
                    for y in range(1, 8):
                        if math.gcd(m * x, n * y) == 1:
                            assert ramanujan_sum(m * n, x * y) == ramanujan_sum(
                                m, x
                            ) * ramanujan_sum(n, y)

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=200),
        st.data(),
    )
    @settings(max_examples=400)
    def test_multiplicativity_random(self, m, x, data):
        # Draw n and y among the values coprime to m*x, so gcd(m*x, n*y) = 1.
        coprime = st.sampled_from([v for v in range(1, 201) if math.gcd(v, m * x) == 1])
        n = data.draw(coprime)
        y = data.draw(coprime)
        assert ramanujan_sum(m * n, x * y) == ramanujan_sum(m, x) * ramanujan_sum(n, y)


class TestPrimePower:
    def test_examples(self):
        assert ramanujan_sum_prime_power(2, 3, 4) == -4
        assert ramanujan_sum_prime_power(3, 0, 5) == 1
        assert ramanujan_sum_prime_power(3, 2, 9) == 6
        assert ramanujan_sum_prime_power(5, 1, 7) == -1

    def test_rejects_composite_base(self):
        with pytest.raises(ValueError):
            ramanujan_sum_prime_power(6, 2, 3)
        with pytest.raises(ValueError):
            ramanujan_sum_prime_power(1, 1, 1)

    @given(
        st.sampled_from([2, 3, 5, 7, 11, 13]),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=300)
    def test_agrees_with_general(self, q, a, r):
        assert ramanujan_sum_prime_power(q, a, r) == ramanujan_sum(q**a, r)


class TestDiagonalClassification:
    def test_examples(self):
        assert classify_diagonal(6) == DiagonalClassification(6, True, None)
        assert classify_diagonal(8) == DiagonalClassification(8, False, (4, -2))
        assert classify_diagonal(12).all_in_0_pm1

    def test_witness_is_first_ascending(self):
        c = classify_diagonal(72)
        assert not c.all_in_0_pm1
        d, v = c.witness
        assert abs(v) > 1
        for e in divisors(72):
            if e >= d:
                break
            assert abs(ramanujan_sum(e, 72 // e)) <= 1

    def test_characterization_sweep(self):
        # in {-1, 0, 1} along the diagonal iff square-free or 4 * odd square-free
        for n in range(1, 500):
            f = factorize(n)
            squarefree = all(a == 1 for _, a in f.factors)
            four_m = (
                f.exponent_of(2) == 2
                and all(a == 1 for p, a in f.factors if p != 2)
            )
            assert classify_diagonal(n).all_in_0_pm1 == (squarefree or four_m)


class TestBoundAttained:
    def test_examples(self):
        assert diagonal_bound_attained(6, 3)
        assert diagonal_bound_attained(6, 12)
        assert not diagonal_bound_attained(5, 2)

    def test_exhaustive_small(self):
        for d in range(1, 121):
            phi = euler_phi(d)
            for r in range(1, 121):
                assert (abs(ramanujan_sum(d, r)) == phi) == diagonal_bound_attained(d, r)


class TestPredicates:
    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert not is_prime(1)

    def test_is_prime_respects_the_factor_cap(self):
        # 10^14 + 31 is prime; trial division past factor_limit grows with sqrt(n)
        with pytest.raises(CapExceeded):
            is_prime(10**14 + 31)
        with pytest.raises(CapExceeded):
            ramanujan_sum_prime_power(10**14 + 31, 1, 1)
        assert is_prime(10**12 - 11)  # the largest prime the cap admits

    def test_is_perfect_square(self):
        assert [n for n in range(1, 50) if is_perfect_square(n)] == [1, 4, 9, 16, 25, 36, 49]
        assert not is_perfect_square(-4)
