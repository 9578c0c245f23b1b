"""The Ramanujan matrix and its trace and row-sum identities.

For n >= 1 with divisors d_1 < ... < d_t, the matrix has entries
M[i][j] = c_{d_i}(n / d_j).  It squares to n times the identity, its
entries sum to n, and its rows sum to nonnegative integers with a
closed product formula over the prime factorization.

The matrix is built one prime at a time: it is the Kronecker product of
the blocks B_p[i][j] = c_{p^i}(p^(a-j)) over p^a || n, with rows and
columns then put in ascending divisor order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import _prime_kron, divisors, factorize, is_perfect_square, moebius, ramanujan_sum, tau
from .config import DEFAULT_CAPS
from .errors import CapExceeded

__all__ = [
    "RamanujanMatrix",
    "build_matrix",
    "trace",
    "signed_trace",
    "row_sum_direct",
    "row_sum_fgk",
    "row_sums",
    "moebius_weighted_row_sum",
    "key_moebius_identity_check",
]


@dataclass(frozen=True)
class RamanujanMatrix:
    n: int
    divisors: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.divisors)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]


def build_matrix(n: int) -> RamanujanMatrix:
    """Dense Ramanujan matrix of n, rows and columns indexed by ascending divisors."""
    if n < 1:
        raise ValueError(f"build_matrix requires n >= 1, got {n}")
    size = tau(n)
    if size > DEFAULT_CAPS.matrix_divisors:
        raise CapExceeded(
            f"n = {n} has {size} divisors, over the cap {DEFAULT_CAPS.matrix_divisors}"
        )
    divs, kron = _prime_kron(n, lambda block: block)
    order = sorted(range(size), key=divs.__getitem__)
    rows = tuple(tuple(kron[i][j] for j in order) for i in order)
    return RamanujanMatrix(n, tuple(divs[i] for i in order), rows)


def trace(n: int) -> int:
    """Sum of c_d(n/d) over d | n: sqrt(n) for perfect squares, else 0."""
    if n < 1:
        raise ValueError(f"trace requires n >= 1, got {n}")
    return isqrt(n) if is_perfect_square(n) else 0


def signed_trace(n: int) -> int:
    """Sum of c_d(n/d) * (-1)^(n/d) over d | n, for even n only.

    Equals sqrt(n) when n is a perfect square, 2*sqrt(n/2) when n/2 is an
    odd perfect square, and 0 otherwise.
    """
    if n < 1:
        raise ValueError(f"signed_trace requires n >= 1, got {n}")
    if n % 2 != 0:
        raise ValueError(f"signed_trace is defined for even n only, got {n}")
    if is_perfect_square(n):
        return isqrt(n)
    h = n // 2
    if h % 2 == 1 and is_perfect_square(h):
        return 2 * isqrt(h)
    return 0


def row_sum_direct(n: int, d: int) -> int:
    """a_d(n) = sum of c_d(k) over k | n, by direct summation."""
    if n < 1 or d < 1 or n % d != 0:
        raise ValueError(f"row_sum_direct requires d | n, got n={n}, d={d}")
    return sum(ramanujan_sum(d, k) for k in divisors(n))


def row_sum_fgk(n: int, d: int) -> int:
    """a_d(n) by the closed product formula.

    For each prime power p^alpha || n with beta = v_p(d), the factor is
    alpha + 1 when beta = 0 and otherwise
    (alpha - beta + 1) * phi(p^beta) - p^(beta - 1).
    """
    if n < 1 or d < 1 or n % d != 0:
        raise ValueError(f"row_sum_fgk requires d | n, got n={n}, d={d}")
    out = 1
    dd = d
    for p, alpha in factorize(n).factors:
        beta = 0
        while dd % p == 0:
            dd //= p
            beta += 1
        if beta == 0:
            out *= alpha + 1
        else:
            pb1 = p ** (beta - 1)
            out *= (alpha - beta + 1) * (p - 1) * pb1 - pb1
    return out


def row_sums(n: int) -> dict[int, int]:
    """All row sums {d: a_d(n)} over ascending divisors d of n."""
    return {d: row_sum_fgk(n, d) for d in divisors(n)}


def moebius_weighted_row_sum(n: int, d: int) -> int:
    """Sum of c_d(n/k) * moebius(k) over k | n."""
    if n < 1 or d < 1 or n % d != 0:
        raise ValueError(f"moebius_weighted_row_sum requires d | n, got n={n}, d={d}")
    return sum(ramanujan_sum(d, n // k) * moebius(k) for k in divisors(n))


def key_moebius_identity_check(n: int, d: int) -> bool:
    """Check that the Moebius-weighted row sum is n when d = n and 0 otherwise."""
    expected = n if d == n else 0
    return moebius_weighted_row_sum(n, d) == expected
