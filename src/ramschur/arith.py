"""Exact classical arithmetic and Ramanujan sums.

Everything is driven by an integer factorization obtained by trial
division with a mod-30 wheel, memoized per session.  All results are
exact Python ints; no floating point is used anywhere in this module.

The Ramanujan sum c_d(r) is the sum of the r-th powers of the primitive
d-th roots of unity.  It is evaluated through von Sterneck's formula

    c_d(r) = moebius(d/g) * phi(d) / phi(d/g),   g = gcd(d, r),

so its value depends on r only through gcd(d, r).

Because c_d(r) is multiplicative in d and c_{p^i}(r) depends only on the
p-part of r, every table of c_d(n/e) over divisors d, e of n is a
Kronecker product of one small block per prime power p^a || n;
`_prime_kron` builds such tables from the single factorization of n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt
from typing import Callable, Optional, Union

from .config import DEFAULT_CAPS
from .errors import CapExceeded

__all__ = [
    "Factorization",
    "factorize",
    "divisors",
    "euler_phi",
    "moebius",
    "tau",
    "gcd",
    "is_prime",
    "is_perfect_square",
    "ramanujan_sum",
    "ramanujan_sum_prime_power",
    "DiagonalClassification",
    "classify_diagonal",
    "diagonal_bound_attained",
]


@dataclass(frozen=True)
class Factorization:
    """Prime factorization n = p1^a1 * ... * pk^ak with p1 < p2 < ... pk."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def exponent_of(self, p: int) -> int:
        for q, a in self.factors:
            if q == p:
                return a
        return 0


IntLike = Union[int, Factorization]

# Gaps between consecutive integers coprime to 30, starting from 7.
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)


@lru_cache(maxsize=None)
def _factor_tuple(n: int) -> tuple[tuple[int, int], ...]:
    factors = []
    m = n
    for p in (2, 3, 5):
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
    p, i = 7, 0
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
        p += _WHEEL[i]
        i = (i + 1) & 7
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def factorize(n: int) -> Factorization:
    """Factor n by trial division.  Accepts 1 <= n <= factor_limit."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    if n > DEFAULT_CAPS.factor_limit:
        raise CapExceeded(f"factorize accepts n <= {DEFAULT_CAPS.factor_limit}, got {n}")
    return Factorization(n, _factor_tuple(n))


def _as_factorization(n: IntLike) -> Factorization:
    return n if isinstance(n, Factorization) else factorize(n)


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n in ascending order."""
    divs = [1]
    for p, a in factorize(n).factors:
        powers = [p**k for k in range(a + 1)]
        divs = [d * q for d in divs for q in powers]
    return tuple(sorted(divs))


def euler_phi(n: IntLike) -> int:
    """Euler's totient."""
    f = _as_factorization(n)
    out = 1
    for p, a in f.factors:
        out *= (p - 1) * p ** (a - 1)
    return out


def moebius(n: IntLike) -> int:
    """Moebius function: 0 on non-square-free n, else (-1)^(#prime factors)."""
    f = _as_factorization(n)
    out = 1
    for _, a in f.factors:
        if a > 1:
            return 0
        out = -out
    return out


def tau(n: IntLike) -> int:
    """Number of divisors."""
    f = _as_factorization(n)
    out = 1
    for _, a in f.factors:
        out *= a + 1
    return out


def is_prime(n: int) -> bool:
    """Primality by trial division; like factorize, accepts n <= factor_limit."""
    if n < 2:
        return False
    return factorize(n).factors == ((n, 1),)


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


@lru_cache(maxsize=None)
def _ramanujan_reduced(d: int, r: int) -> int:
    g = gcd(d, r)
    m = d // g
    mu = moebius(m)
    if mu == 0:
        return 0
    # phi(m) divides phi(d) whenever m divides d, so this is exact.
    return mu * (euler_phi(d) // euler_phi(m))


def ramanujan_sum(d: int, r: int) -> int:
    """Ramanujan sum c_d(r) via von Sterneck's formula.

    Periodic in r with period d; r is reduced modulo d on entry (with a
    residue of 0 treated as d) so the memo table stays small.
    """
    if d < 1:
        raise ValueError(f"ramanujan_sum requires d >= 1, got d={d}")
    if r < 1:
        raise ValueError(f"ramanujan_sum requires r >= 1, got r={r}")
    r = r % d or d
    return _ramanujan_reduced(d, r)


def _prime_power_sum(q: int, a: int, v: int) -> int:
    """c_{q^a}(r) for prime q, where v = v_q(r) (any v >= a counts as a)."""
    if a == 0:
        return 1
    if v >= a:
        return (q - 1) * q ** (a - 1)
    if v == a - 1:
        return -(q ** (a - 1))
    return 0


def ramanujan_sum_prime_power(q: int, a: int, r: int) -> int:
    """c_{q^a}(r) for prime q by the three-case evaluation.

    Returns phi(q^a) when q^a | r, -q^(a-1) when q^(a-1) | r but
    q^a does not divide r, and 0 otherwise.
    """
    if a < 0:
        raise ValueError(f"exponent must be >= 0, got {a}")
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    v = 0
    while v < a and r % q == 0:
        r //= q
        v += 1
    return _prime_power_sum(q, a, v)


def _prime_kron(n: int, piece: Callable) -> tuple[list[int], list[list[int]]]:
    """The divisors of n and the Kronecker product of piece(B_p) over p^a || n.

    B_p is the (a+1) x (a+1) block B_p[i][j] = c_{p^i}(p^(a-j)), so that
    c_d(n/e) is the product over p of B_p[v_p(d)][v_p(e)].  Column j of a
    piece belongs to the exponent j of p; a piece may have any number of
    rows.  Divisors come in mixed-radix order, the last prime varying
    fastest, which is the order of the product's columns (and of its
    rows, when every piece is square).  Only n is factored.
    """
    divs = [1]
    out = [[1]]
    for p, a in factorize(n).factors:
        block = [[_prime_power_sum(p, i, a - j) for j in range(a + 1)] for i in range(a + 1)]
        divs = [d * p**j for d in divs for j in range(a + 1)]
        part = piece(block)
        out = [[x * y for x in row for y in prow] for row in out for prow in part]
    return divs, out


@dataclass(frozen=True)
class DiagonalClassification:
    """Whether every c_d(n/d) over d | n lies in {-1, 0, 1}.

    When false, witness is the first divisor (ascending) with
    |c_d(n/d)| > 1, paired with that value.
    """

    n: int
    all_in_0_pm1: bool
    witness: Optional[tuple[int, int]]


def classify_diagonal(n: int) -> DiagonalClassification:
    for d in divisors(n):
        v = ramanujan_sum(d, n // d)
        if v < -1 or v > 1:
            return DiagonalClassification(n, False, (d, v))
    return DiagonalClassification(n, True, None)


def diagonal_bound_attained(d: int, r: int) -> bool:
    """True iff |c_d(r)| equals phi(d).

    This happens exactly when d | r, or when d is even and r is an odd
    multiple of d/2.
    """
    if d < 1 or r < 1:
        raise ValueError("diagonal_bound_attained requires d, r >= 1")
    if r % d == 0:
        return True
    if d % 2 == 0:
        h = d // 2
        return r % h == 0 and (r // h) % 2 == 1
    return False
