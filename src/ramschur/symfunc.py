"""Partitions, rectangle characters, and exact Schur-basis expansions.

Partitions are tuples of weakly decreasing positive ints.  A Schur
expansion is a sparse map from partitions to nonzero integer
coefficients, all of one degree.

The Schur expansion of p_d^k (n = dk) has coefficient chi^lambda(d^k)
at lambda: the symmetric group character on the class of k d-cycles.  By
the d-quotient theorem (Macdonald, Symmetric Functions and Hall
Polynomials, Ch. I; James-Kerber 2.7; Fomin-Lulov 1995) it is 0 unless
lambda has an empty d-core, and otherwise

    sign * k! / prod_j |lambda^(j)|! * prod_j f^(lambda^(j))

over the quotient lambda^(0), ..., lambda^(d-1), with f the number of
standard Young tableaux; the multinomial is a product of binomials.

The expansion is generated from the quotients.  For each tuple of
partitions whose sizes sum to k, runner j of a d-runner abacus gets t
beads at levels lambda^(j)_i + t - 1 - i (t the most parts of any
piece); level l of runner j is position d*l + j, and the merged positions
are the beta-numbers of lambda.  The sign is (-1) to the number of bead
pairs in which the bead on the lower runner lies higher, counted
relative to the empty core, which has C(t, 2) such pairs per pair of
runners; it equals (-1) to the total leg length of any removal of
d-hooks down to the core.  For d = 1 the coefficient is f^lambda, from
the hook length formula.  Only the final expansions are cached.

Major-index distributions come from the q-analog hook length formula;
the polynomial division is performed exactly over the integers and any
nonzero remainder raises InternalConsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial
from operator import sub
from typing import Iterator, Mapping

from .config import DEFAULT_CAPS
from .errors import CapExceeded, InternalConsistencyError

__all__ = [
    "Partition",
    "is_partition",
    "partitions_of",
    "partition_list",
    "conjugate",
    "hook_lengths",
    "syt_count",
    "SchurExpansion",
    "power_sum_rectangle_expansion",
    "MajDistribution",
    "maj_distribution",
]

Partition = tuple[int, ...]


def is_partition(parts) -> bool:
    """True for a tuple of weakly decreasing positive integers (or ())."""
    if not isinstance(parts, tuple):
        return False
    last = None
    for x in parts:
        if not isinstance(x, int) or x < 1:
            return False
        if last is not None and x > last:
            return False
        last = x
    return True


def _require_partition(parts) -> Partition:
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts!r}")
    return parts


def _partitions_desc(n: int) -> Iterator[Partition]:
    # Reverse lexicographic: (n) first, (1,...,1) last.
    if n == 0:
        yield ()
        return
    a = [n]
    while True:
        yield tuple(a)
        j = len(a) - 1
        ones = 0
        while j >= 0 and a[j] == 1:
            ones += 1
            j -= 1
        if j < 0:
            return
        a[j] -= 1
        rem = ones + 1
        del a[j + 1 :]
        while rem > a[j]:
            a.append(a[j])
            rem -= a[j]
        if rem:
            a.append(rem)


def partitions_of(n: int, *, cap: int | None = None) -> Iterator[Partition]:
    """Stream the partitions of n in reverse lexicographic order."""
    limit = DEFAULT_CAPS.schur_degree if cap is None else cap
    if n < 0:
        raise ValueError(f"partitions_of requires n >= 0, got {n}")
    if n > limit:
        raise CapExceeded(f"partitions_of(n={n}) exceeds the degree cap {limit}")
    return _partitions_desc(n)


@lru_cache(maxsize=None)
def partition_list(n: int) -> tuple[Partition, ...]:
    """Cached tuple of all partitions of n, reverse lexicographic."""
    if n < 0:
        raise ValueError(f"partition_list requires n >= 0, got {n}")
    return tuple(_partitions_desc(n))


def conjugate(shape: Partition) -> Partition:
    """Transpose of the Young diagram."""
    _require_partition(shape)
    if not shape:
        return ()
    out = []
    for j in range(shape[0]):
        out.append(sum(1 for part in shape if part > j))
    return tuple(out)


def _legs(shape: Partition) -> list[int]:
    # legs[j] = (length of column j) - j, so the hook at (i, j) is
    # legs[j] + shape[i] - i - 1.
    legs = []
    rows = len(shape)
    for j in range(shape[0] if shape else 0):
        while shape[rows - 1] <= j:
            rows -= 1
        legs.append(rows - j)
    return legs


def hook_lengths(shape: Partition) -> tuple[int, ...]:
    """Hook lengths of all cells, row by row."""
    _require_partition(shape)
    legs = _legs(shape)
    return tuple(leg + row - i - 1 for i, row in enumerate(shape) for leg in legs[:row])


def _syt(n_factorial: int, shape: Partition) -> int:
    # n! over the hook product, multiplied in place one row at a time so
    # that most partial products stay small.
    legs = _legs(shape)
    prod = 1
    for i, row in enumerate(shape):
        row_prod = 1
        for leg in legs[:row]:
            row_prod *= leg + row - i - 1
        prod *= row_prod
    count, rem = divmod(n_factorial, prod)
    if rem:
        raise InternalConsistencyError(f"hook product does not divide {sum(shape)}! for {shape}")
    return count


def syt_count(shape: Partition) -> int:
    """Number of standard Young tableaux, by the hook length formula."""
    _require_partition(shape)
    return _syt(factorial(sum(shape)), shape)


@dataclass(eq=True)
class SchurExpansion:
    """Sparse integer combination of Schur functions of one degree.

    Zero coefficients are never stored.
    """

    n: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        self.terms = {lam: c for lam, c in self.terms.items() if c}

    def coefficient(self, shape: Partition) -> int:
        return self.terms.get(shape, 0)

    def items_desc(self) -> list[tuple[Partition, int]]:
        """Terms sorted by partition, reverse lexicographic."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def __len__(self) -> int:
        return len(self.terms)


@lru_cache(maxsize=None)
def _rectangle_terms(n: int, d: int) -> Mapping[Partition, int]:
    # Internal, read-only view; callers must not mutate.  The d = 1 column
    # lists every shape in partition_list order (reverse lexicographic);
    # check_positivity's scan relies on that order for its witness.
    if d < 1 or n < 0 or n % d != 0:
        raise ValueError(f"need d >= 1 and d | n, got n={n}, d={d}")
    if d == 1:
        n_factorial = factorial(n)
        return {lam: _syt(n_factorial, lam) for lam in partition_list(n)}
    k = n // d
    syt = [_rectangle_terms(m, 1).items() for m in range(k + 1)]
    runner_pairs = comb(d, 2)
    terms = {}
    # Quotient sizes: the compositions of k into d parts, as bar positions.
    for bars in combinations(range(k + d - 1), d - 1):
        sizes = [b - a - 1 for a, b in zip((-1, *bars), (*bars, k + d - 1))]
        multinomial = 1
        placed = 0
        for m in sizes:
            placed += m
            multinomial *= comb(placed, m)
        for quotient in product(*(syt[m] for m in sizes)):
            t = max(len(mu) for mu, _ in quotient)
            coeff = multinomial
            beads = []
            for j, (mu, f) in enumerate(quotient):
                coeff *= f
                beads += [d * (part + t - 1 - i) + j for i, part in enumerate(mu)]
                beads += range(j, d * (t - len(mu)), d)
            beads.sort()
            # Walking up the abacus, a bead lies above every bead already
            # passed on a higher runner.  Counting from the empty core's
            # C(t, 2) per pair of runners gives the same parity as
            # counting relative to it.
            crossings = runner_pairs * comb(t, 2)
            passed = [0] * d
            for bead in beads:
                runner = bead % d
                crossings += sum(passed[runner + 1 :])
                passed[runner] += 1
            lam = tuple(filter(None, map(sub, beads, range(d * t))))[::-1]
            terms[lam] = -coeff if crossings & 1 else coeff
    return terms


def power_sum_rectangle_expansion(n: int, d: int, *, cap: int | None = None) -> SchurExpansion:
    """Schur expansion of p_d^(n/d) for d | n.

    The coefficient of s_lambda is chi^lambda on the class d^(n/d).
    """
    limit = DEFAULT_CAPS.schur_degree if cap is None else cap
    if n > limit:
        raise CapExceeded(f"degree {n} exceeds the expansion cap {limit}")
    return SchurExpansion(n, _rectangle_terms(n, d))


def _qint_mul(poly: list[int], k: int) -> list[int]:
    # Multiply by [k]_q = 1 + q + ... + q^(k-1) with a sliding window.
    out = [0] * (len(poly) + k - 1)
    window = 0
    for i in range(len(out)):
        if i < len(poly):
            window += poly[i]
        if i - k >= 0:
            window -= poly[i - k]
        out[i] = window
    return out


def _qint_div_exact(poly: list[int], h: int) -> list[int]:
    # Long division by the monic [h]_q; nonzero remainder is a bug.
    if h == 1:
        return list(poly)
    rem = list(poly)
    deg = len(rem) - 1
    quot = [0] * (deg - h + 2)
    for i in range(deg, h - 2, -1):
        c = rem[i]
        if c:
            quot[i - h + 1] = c
            for t in range(i - h + 1, i + 1):
                rem[t] -= c
    if any(rem[: h - 1]):
        raise InternalConsistencyError("q-hook division left a nonzero remainder")
    return quot


@dataclass(frozen=True)
class MajDistribution:
    """Counts of standard Young tableaux by major index modulo n.

    counts maps each residue class r in {1, ..., n} to the number of SYT
    of the shape with maj congruent to r mod n; the class of 0 is keyed
    by n itself.
    """

    shape: Partition
    modulus: int
    counts: dict

    def count(self, r: int) -> int:
        if r < 1:
            raise ValueError(f"residue label must be >= 1, got {r}")
        return self.counts[(r - 1) % self.modulus + 1]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def maj_distribution(shape: Partition, *, cap: int | None = None) -> MajDistribution:
    """Major-index generating counts via the q-analog hook length formula.

    The generating polynomial is q^b(shape) * [n]_q! / prod [h]_q over
    hooks h, with b(shape) = sum (i-1) * shape_i; coefficients are binned
    modulo n.
    """
    _require_partition(shape)
    n = sum(shape)
    limit = DEFAULT_CAPS.maj_degree if cap is None else cap
    if n < 1:
        raise ValueError("maj_distribution requires a nonempty shape")
    if n > limit:
        raise CapExceeded(f"|shape| = {n} exceeds the maj cap {limit}")
    poly = [1]
    for k in range(2, n + 1):
        poly = _qint_mul(poly, k)
    for h in hook_lengths(shape):
        poly = _qint_div_exact(poly, h)
    shift = sum(i * part for i, part in enumerate(shape))
    counts = {r: 0 for r in range(1, n + 1)}
    for j, c in enumerate(poly):
        if c:
            counts[(j + shift - 1) % n + 1] += c
    return MajDistribution(shape, n, counts)
