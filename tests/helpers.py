"""Independent oracles for the test-suite.

These deliberately avoid the library's algorithms: Ramanujan sums are
recomputed as floating-point sums over primitive roots of unity or, in
integers, by Kluyver's formula, corner multiplicities as divisor sums, SYT
counts through the factorial-quotient product formula (not hooks),
border strips by direct skew-diagram geometry, rectangle characters by
iterated Murnaghan-Nakayama border-strip addition (not d-quotients),
major indices by explicit tableau enumeration, and partition counts by
the classic two-variable recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import gcd

from ramschur.symfunc import SchurExpansion


def brute_force_ramanujan(d: int, r: int) -> tuple[int, float]:
    """(nearest integer, residual) for the sum of cos(2 pi m r / d)."""
    acc = 0.0
    for m in range(1, d + 1):
        if gcd(m, d) == 1:
            acc += math.cos(2.0 * math.pi * m * r / d)
    nearest = round(acc)
    return nearest, abs(acc - nearest)


@lru_cache(maxsize=None)
def partition_count(n: int, max_part: int | None = None) -> int:
    """p(n) by the recurrence p(n, k) = p(n - k, k) + p(n, k - 1)."""
    if max_part is None:
        max_part = n
    if n == 0:
        return 1
    if n < 0 or max_part == 0:
        return 0
    return partition_count(n - max_part, max_part) + partition_count(n, max_part - 1)


def partitions_brute(n: int, max_part: int | None = None):
    """All partitions of n, recursively (order not significant here)."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_brute(n - first, first):
            yield (first,) + rest


def _skew_cells(lam: tuple[int, ...], mu: tuple[int, ...]) -> list[tuple[int, int]]:
    cells = []
    for i, row in enumerate(lam):
        inner = mu[i] if i < len(mu) else 0
        for j in range(inner, row):
            cells.append((i, j))
    return cells


def _is_border_strip(cells: list[tuple[int, int]]) -> bool:
    cellset = set(cells)
    for i, j in cells:
        if {(i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)} <= cellset:
            return False
    # connectivity under edge adjacency
    seen = {cells[0]}
    frontier = [cells[0]]
    while frontier:
        i, j = frontier.pop()
        for ni, nj in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if (ni, nj) in cellset and (ni, nj) not in seen:
                seen.add((ni, nj))
                frontier.append((ni, nj))
    return len(seen) == len(cells)


def border_strips_brute(mu: tuple[int, ...], d: int) -> set[tuple[tuple[int, ...], int]]:
    """All (lambda, sign) with lambda/mu a border strip of size d, geometrically."""
    out = set()
    target = sum(mu) + d
    for lam in partitions_brute(target):
        if len(lam) < len(mu) or any(lam[i] < mu[i] for i in range(len(mu))):
            continue
        cells = _skew_cells(lam, mu)
        if len(cells) != d or not _is_border_strip(cells):
            continue
        height = len({i for i, _ in cells}) - 1
        out.add((lam, -1 if height % 2 else 1))
    return out


def addable_strips(mu: tuple[int, ...], d: int) -> list[tuple[tuple[int, ...], int]]:
    """All (lambda, sign) with lambda/mu a border strip of size d.

    Beta-number encoding: with L = rows + d beads beta_i = mu_i + L - 1 - i,
    adding a strip of size d moves one bead up by d onto a free slot, and
    the sign counts the beads jumped over.
    """
    rows = len(mu)
    length = rows + d
    beta = [mu[i] + length - 1 - i for i in range(rows)]
    beta.extend(range(length - 1 - rows, -1, -1))
    beta_set = set(beta)
    out = []
    for i in range(length):
        target = beta[i] + d
        if target in beta_set:
            continue
        crossed = 0
        j = i - 1
        while j >= 0 and beta[j] < target:
            crossed += 1
            j -= 1
        pos = i - crossed
        new_beta = beta[:pos] + [target] + beta[pos:i] + beta[i + 1 :]
        parts = []
        for t, b in enumerate(new_beta):
            part = b - (length - 1 - t)
            if part == 0:
                break
            parts.append(part)
        out.append((tuple(parts), -1 if crossed & 1 else 1))
    return out


def multiply_by_power_sum(expansion: SchurExpansion, d: int) -> SchurExpansion:
    """Schur expansion of p_d times the given expansion, strip by strip."""
    if d < 1:
        raise ValueError(f"power-sum index must be >= 1, got {d}")
    out: dict = {}
    for mu, c in expansion.terms.items():
        for lam, sign in addable_strips(mu, d):
            out[lam] = out.get(lam, 0) + sign * c
    return SchurExpansion(expansion.n + d, out)


def power_sum_chain(d: int):
    """Yield the Schur terms of p_d, p_d^2, p_d^3, ... without end."""
    expansion = SchurExpansion(0, {(): 1})
    while True:
        expansion = multiply_by_power_sum(expansion, d)
        yield expansion.terms


def syt_count_product(shape: tuple[int, ...]) -> int:
    """SYT count by the product formula over shifted first-column lengths.

    f = n! * prod_{i<j} (l_i - l_j) / prod_i l_i!  with l_i = shape_i + m - i.
    """
    n = sum(shape)
    m = len(shape)
    if m == 0:
        return 1
    ell = [shape[i] + m - 1 - i for i in range(m)]
    value = Fraction(math.factorial(n))
    for i in range(m):
        for j in range(i + 1, m):
            value *= ell[i] - ell[j]
    for li in ell:
        value /= math.factorial(li)
    assert value.denominator == 1
    return int(value)


def enumerate_syt_maj(shape: tuple[int, ...]) -> list[int]:
    """Major indices of every standard Young tableau of the shape."""
    n = sum(shape)
    rows = len(shape)
    filled = [0] * rows
    row_of = [0] * (n + 1)
    out = []

    def rec(v: int):
        if v > n:
            maj = sum(k for k in range(1, n) if row_of[k + 1] > row_of[k])
            out.append(maj)
            return
        for i in range(rows):
            if filled[i] < shape[i] and (i == 0 or filled[i] < filled[i - 1]):
                filled[i] += 1
                row_of[v] = i
                rec(v + 1)
                filled[i] -= 1

    rec(1)
    return out


def _moebius_trial(n: int) -> int:
    """Moebius function by trial division."""
    sign = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def kluyver_ramanujan(q: int, r: int) -> int:
    """c_q(r) = sum over d | gcd(q, r) of mu(q/d) * d (Kluyver), exactly."""
    g = gcd(q, r)
    return sum(_moebius_trial(q // d) * d for d in range(1, g + 1) if g % d == 0)


def corner_sums(n: int, u: int) -> tuple[int, int]:
    """(t, s): the coefficients of s_(n) and s_(1^n) in R(n, u), as divisor sums.

    t = sum over d | n of c_d(n/d)^u, and s weights each term by
    (-1)^(n - n/d), the sign of the cycle type d^(n/d) at (1^n).
    """
    t = s = 0
    for d in range(1, n + 1):
        if n % d == 0:
            w = kluyver_ramanujan(d, n // d) ** u
            t += w
            s += -w if (n - n // d) % 2 else w
    return t, s
