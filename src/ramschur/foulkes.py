"""Foulkes characters and the weighted power-sum family R(n, u).

R(n, u) is the symmetric function sum over d | n of
c_d(n/d)^u * p_d^(n/d), with the convention x^0 = 1 for every x
including 0, so R(n, 0) is the characteristic of the regular action on
necklaces refined by all divisors.

The Foulkes character with label r decomposes as
ell(n, r) = (1/n) * sum over d | n of c_d(r) * p_d^(n/d); its Schur
multiplicity at lambda counts SYT of shape lambda with major index
congruent to r mod n.  It depends on r only through m = gcd(n, r) and
is cached by that canonical key.

In the ell basis, R(n, u) = sum over k | n of Y_u[n, n/k] * ell(n, k)
where Y_u[n, k] = sum over d | n of c_k(n/d) * c_d(n/d)^u.  The whole row
is built one prime at a time: with B_p[i][j] = c_{p^i}(p^(a-j)) for
p^a || n, Y_u[n, k] is the product over p of the v_p(k)-th row sum of
B_p * diag(B_p)^u, so n is the only integer factored.  The corner
multiplicities, at s_(n) and s_(1^n), are read off that row (`_corners`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, gcd, isqrt
from typing import Iterator, Mapping, Optional

from .arith import _prime_kron, divisors, factorize, ramanujan_sum
from .config import DEFAULT_CAPS
from .errors import CapExceeded, InternalConsistencyError
from .ramat import row_sum_fgk
from .symfunc import (
    Partition,
    SchurExpansion,
    _rectangle_terms,
    partition_list,
)

__all__ = [
    "foulkes_schur_multiplicities",
    "y_coefficient",
    "StructuralY",
    "y_coefficient_structural",
    "y_coefficient_structural_detail",
    "EllExpansion",
    "rnu_ell_expansion",
    "rnu_schur_expansion",
    "trivial_multiplicity",
    "sign_multiplicity",
    "PositivityVerdict",
    "check_positivity",
    "RejectionReason",
    "quick_reject",
    "ScalarDivisibility",
    "scalar_divisibility_check",
    "MultiplicityReport",
    "multiplicity_report",
    "SwansonViolation",
    "swanson_vanishing_check",
]


def _require(n: int, u: int = 0) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if u < 0:
        raise ValueError(f"u must be >= 0, got {u}")


def _check_degree(n: int, cap: int | None) -> None:
    _require(n)
    limit = DEFAULT_CAPS.schur_degree if cap is None else cap
    if n > limit:
        raise CapExceeded(f"n = {n} exceeds the expansion cap {limit}")


def _coefficients(n: int, weights: Mapping[int, int]) -> Iterator[tuple[Partition, int]]:
    """(lambda, sum over d | n of weights[d] * chi^lambda(d^(n/d))) per shape,
    in the reverse lexicographic order of the d = 1 column, whose weight
    must be 1, as c_1(m) is.
    """
    columns = [(w, _rectangle_terms(n, d).get) for d, w in weights.items() if d > 1 and w]
    for lam, f in _rectangle_terms(n, 1).items():
        c = f
        for w, get in columns:
            c += w * get(lam, 0)
        yield lam, c


@lru_cache(maxsize=None)
def _ell_terms(n: int, m: int) -> Mapping[Partition, int]:
    # m = gcd(n, r) is the canonical label; read-only result.
    out = {}
    for lam, v in _coefficients(n, {d: ramanujan_sum(d, m) for d in divisors(n)}):
        if v == 0:
            continue
        q, rem = divmod(v, n)
        if rem:
            raise InternalConsistencyError(
                f"character sum not divisible by n at n={n}, m={m}, shape={lam}"
            )
        out[lam] = q
    return out


def foulkes_schur_multiplicities(n: int, r: int, *, cap: int | None = None) -> SchurExpansion:
    """Schur multiplicities of the Foulkes character ell(n, r).

    r is normalized to the canonical divisor gcd(n, r); every
    coefficient is an exact integer, with inexact division reported as
    InternalConsistencyError.
    """
    _check_degree(n, cap)
    if r < 1 or r > n:
        raise ValueError(f"label r must satisfy 1 <= r <= n, got r={r}")
    return SchurExpansion(n, dict(_ell_terms(n, gcd(n, r))))


def y_coefficient(n: int, k: int, u: int) -> int:
    """Y_u[n, k] = sum over d | n of c_k(n/d) * c_d(n/d)^u, exactly.

    Uses the convention x^0 = 1 for all x, including x = 0.  This is the
    direct sum over divisors, kept as the reference that `verify` and the
    tests compare with; `rnu_ell_expansion` and `check_positivity` build
    the whole row per prime instead.
    """
    if n < 1 or k < 1 or n % k != 0:
        raise ValueError(f"need k | n, got n={n}, k={k}")
    if u < 0:
        raise ValueError(f"u must be >= 0, got {u}")
    total = 0
    for d in divisors(n):
        q = n // d
        total += ramanujan_sum(k, q) * ramanujan_sum(d, q) ** u
    return total


@dataclass(frozen=True)
class StructuralY:
    """Block-product evaluation of Y_u[n, k].

    fallback_blocks lists the prime-power blocks q^a (a >= 2) that had no
    closed form for the given u and were evaluated by direct summation.
    """

    n: int
    k: int
    u: int
    value: int
    fallback_blocks: tuple[int, ...]

    @property
    def fully_structural(self) -> bool:
        return not self.fallback_blocks


def y_coefficient_structural_detail(n: int, k: int, u: int) -> StructuralY:
    """Evaluate Y_u[n, k] multiplicatively over coprime blocks of n.

    The square-free part of n forms one block: there Y is n_block on the
    full divisor for odd u and a row sum of the Ramanujan matrix for
    even u.  Prime-power blocks q^a with a >= 2 have closed forms for
    u <= 1 (odd a: concentrated at k = q^((a+1)/2); even a = 2t:
    q^t * phi(q^i) for k = q^i with i <= t); for u >= 2 those blocks fall
    back to direct summation and are flagged.
    """
    if n < 1 or k < 1 or n % k != 0:
        raise ValueError(f"need k | n, got n={n}, k={k}")
    if u < 0:
        raise ValueError(f"u must be >= 0, got {u}")
    value = 1
    fallback = []
    squarefree_n = 1
    squarefree_k = 1
    for p, a in factorize(n).factors:
        kp = 1
        kk = k
        while kk % p == 0:
            kk //= p
            kp *= p
        if a == 1:
            squarefree_n *= p
            squarefree_k *= kp
            continue
        block = p**a
        if u == 0:
            value *= row_sum_fgk(block, kp)
        elif u == 1:
            if a % 2 == 1:
                mid = p ** ((a + 1) // 2)
                value *= block if kp == mid else 0
            else:
                t = a // 2
                i = 0
                q = kp
                while q > 1:
                    q //= p
                    i += 1
                if i <= t:
                    phi = 1 if kp == 1 else (p - 1) * (kp // p)
                    value *= p**t * phi
                else:
                    value *= 0
        else:
            fallback.append(block)
            value *= y_coefficient(block, kp, u)
    if squarefree_n > 1 or n == 1:
        if u % 2 == 1:
            value *= squarefree_n if squarefree_k == squarefree_n else 0
        else:
            value *= row_sum_fgk(squarefree_n, squarefree_k)
    return StructuralY(n, k, u, value, tuple(fallback))


def y_coefficient_structural(n: int, k: int, u: int) -> int:
    return y_coefficient_structural_detail(n, k, u).value


@dataclass(eq=True)
class EllExpansion:
    """Integer combination of Foulkes characters ell(n, k) over k | n.

    Zero coefficients are not stored; coefficient() returns 0 for them.
    """

    n: int
    coeffs: dict

    def coefficient(self, k: int) -> int:
        return self.coeffs.get(k, 0)

    def items_asc(self) -> list[tuple[int, int]]:
        return sorted(self.coeffs.items())


def _ell_row(n: int, u: int) -> list[tuple[int, int]]:
    """(k, Y_u[n, n/k]) for every k | n, ascending in k, one block per prime."""

    def piece(block):
        weights = [block[i][i] ** u for i in range(len(block))]
        y = [sum(b * w for b, w in zip(row, weights)) for row in block]
        return [y[::-1]]  # column e belongs to k = p^e, so it holds Y at p^(a-e)

    divs, (row,) = _prime_kron(n, piece)
    return sorted(zip(divs, row))


def rnu_ell_expansion(n: int, u: int) -> EllExpansion:
    """R(n, u) in the Foulkes basis: coefficient of ell(n, k) is Y_u[n, n/k]."""
    _require(n, u)
    return EllExpansion(n, {k: y for k, y in _ell_row(n, u) if y})


def _diagonal_weights(n: int, u: int) -> dict[int, int]:
    return {d: ramanujan_sum(d, n // d) ** u for d in divisors(n)}


def rnu_schur_expansion(n: int, u: int, *, cap: int | None = None) -> SchurExpansion:
    """Schur expansion of R(n, u), exactly."""
    _check_degree(n, cap)
    _require(n, u)
    return SchurExpansion(n, dict(_coefficients(n, _diagonal_weights(n, u))))


def _corners(n: int, u: int, row: Optional[list[tuple[int, int]]] = None) -> tuple[int, int]:
    """(t, s), the coefficients of s_(n) and s_(1^n) in R(n, u), read from
    the ell row (`row`, else `_ell_row(n, u)`).  (n) has one SYT, of major
    index 0, so t = Y_u[n, 1]; (1^n) has one, of major index n(n-1)/2, so
    s = t for odd n and s = Y_u[n, 2] for even n.
    """
    _require(n, u)
    y = dict(_ell_row(n, u) if row is None else row)
    return y[n], y[n if n % 2 else n // 2]


def trivial_multiplicity(n: int, u: int) -> int:
    """Coefficient of s_(n) in R(n, u): sum of c_d(n/d)^u over d | n."""
    return _corners(n, u)[0]


def sign_multiplicity(n: int, u: int) -> int:
    """Coefficient of s_(1^n) in R(n, u): sum of c_d(n/d)^u * (-1)^(n - n/d)."""
    return _corners(n, u)[1]


@dataclass(frozen=True)
class PositivityVerdict:
    """Outcome of the staged Schur positivity check.

    ell_nonneg reports whether every coefficient in the Foulkes basis is
    nonnegative (which forces Schur positivity); witness carries the
    first negative Schur coefficient in reverse lexicographic order when
    the answer is negative.  route names the stage that decided:

    - "ell": every ell-basis coefficient is nonnegative;
    - "certificate": the corner multiplicities t and s, read from the
      ell row since (n) and (1^n) have one SYT each, decide: t outside
      [0, n] makes (n) or (n-1,1) the witness, or else, with s in
      [0, n], the bounds of Rasala (J. Algebra 45, 1977) and
      Fomin-Lulov (1995) prove every coefficient nonnegative;
    - "scan": every other cell, by the first negative coefficient of
      `_coefficients`, in reverse lexicographic order.
    """

    n: int
    u: int
    schur_positive: bool
    witness: Optional[tuple[Partition, int]]
    ell_nonneg: bool
    route: str = ""


# Fixed-point scale of the certificate's integer roots.
_SCALE = 1 << 64


def _ceil_root(x: int, d: int) -> int:
    """Least r >= 0 with r**d >= x, for x >= 0 and d >= 1, by bisection."""
    lo, hi = 0, 1 << -(-x.bit_length() // d)  # hi**d > x
    while lo < hi:
        mid = (lo + hi) >> 1
        if mid**d >= x:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _rasala_degree(n: int) -> Optional[int]:
    """Least f^lambda over the shapes of n other than the four corners.

    It is n(n-3)/2, at (n-2,2), for n >= 9; the formula fails at n = 6
    and n = 8, so None is returned below 9.
    """
    return n * (n - 3) // 2 if n >= 9 else None


def _bounded_by_fomin_lulov(n: int, weights: Mapping[int, int]) -> bool:
    """True when every non-corner Schur coefficient of R(n, u) is >= 0.

    For n >= 9 every shape other than (n), (n-1,1), (2,1^(n-2)) and
    (1^n) has f^lambda >= f0 = n(n-3)/2 (Rasala, "On the minimal degrees
    of characters of S_n", J. Algebra 45, 1977; see `_rasala_degree`).
    For n = dk, |chi^lambda(d^k)| <= k! d^k (f^lambda / n!)^(1/d)
    (Fomin-Lulov, 1995), a bound that falls relative to f^lambda as
    f^lambda grows.  So the coefficient f^lambda + sum over d > 1 of
    w_d chi^lambda(d^k), w_d = weights[d] = c_d(n/d)^u, is nonnegative
    once the bounds at f0 sum to at most f0.  Each term is rounded up at
    scale 2^64, as the least r with r^d >= ceil((a * 2^64)^d * f0 / n!),
    a = |w_d| k! d^k.
    """
    f0 = _rasala_degree(n)
    if f0 is None:
        return False
    n_factorial = factorial(n)
    total = 0
    for d, w in weights.items():
        if d == 1 or w == 0:
            continue
        k = n // d
        a = abs(w) * factorial(k) * d**k * _SCALE
        total += _ceil_root(-(-(a**d * f0) // n_factorial), d)
    return total <= f0 * _SCALE


def check_positivity(n: int, u: int, *, cap: int | None = None) -> PositivityVerdict:
    """Decide whether R(n, u) is Schur positive, in three stages.

    "ell": if all ell-basis coefficients are nonnegative the answer is
    yes.  "certificate": the trivial and sign multiplicities t and s are
    read from that same ell row, since (n) and (1^n) have one SYT each
    (see `_corners`).  The coefficients at (n) and (n-1,1) are t and
    n - t, so t < 0 or t > n gives the first negative shape in reverse
    lexicographic order; if instead t and s both lie in [0, n], the four
    corner coefficients t, n - t, n - s, s are nonnegative and the
    bounds of Rasala (1977) and Fomin-Lulov (1995) may cover every other
    shape (see `_bounded_by_fomin_lulov`).  Both stages are arithmetic
    and run at any degree.  "scan": past them, the Schur-degree cap
    applies, and the witness is the first negative coefficient that
    `_coefficients` yields, in reverse lexicographic order; no expansion
    is built.  A reject at a sign corner goes to the scan, because
    (2,1^(n-2)) and (1^n) come last and an earlier shape may be negative
    too.
    """
    _require(n, u)
    row = _ell_row(n, u)
    if min(y for _, y in row) >= 0:
        return PositivityVerdict(n, u, True, None, True, "ell")
    t, s = _corners(n, u, row)
    if t < 0 or t > n:
        witness = ((n,), t) if t < 0 else ((n - 1, 1), n - t)
        return PositivityVerdict(n, u, False, witness, False, "certificate")
    weights = _diagonal_weights(n, u)
    if 0 <= s <= n and _bounded_by_fomin_lulov(n, weights):
        return PositivityVerdict(n, u, True, None, False, "certificate")
    _check_degree(n, cap)
    witness = next(((lam, c) for lam, c in _coefficients(n, weights) if c < 0), None)
    return PositivityVerdict(n, u, witness is None, witness, False, "scan")


@dataclass(frozen=True)
class RejectionReason:
    """A corner multiplicity outside [0, n], certifying non-positivity."""

    n: int
    u: int
    which: str  # "trivial" or "sign"
    value: int

    def __str__(self) -> str:
        return (
            f"R({self.n},{self.u}) is not Schur positive: {self.which} "
            f"multiplicity {self.value} is outside [0, {self.n}]"
        )


def quick_reject(n: int, u: int) -> Optional[RejectionReason]:
    """Cheap necessary conditions for Schur positivity.

    The trivial multiplicity t and the sign-weighted multiplicity s must
    both lie in [0, n] (the hook coefficients at (n-1,1) and (2,1^(n-2))
    are n - t and n - s).  Returns a reason when one fails, else None.
    A None answer decides nothing.
    """
    t, s = _corners(n, u)
    if t < 0 or t > n:
        return RejectionReason(n, u, "trivial", t)
    if s < 0 or s > n:
        return RejectionReason(n, u, "sign", s)
    return None


@dataclass(frozen=True)
class ScalarDivisibility:
    """n_odd * isqrt(n_even) divides every Schur coefficient of R(n, 1).

    n_odd collects the prime powers of n with odd exponent, n_even those
    with even exponent.
    """

    n: int
    odd_part: int
    even_part: int
    scalar: int
    divides: bool


def scalar_divisibility_check(n: int, *, cap: int | None = None) -> ScalarDivisibility:
    _check_degree(n, cap)
    odd_part = 1
    even_part = 1
    for p, a in factorize(n).factors:
        if a % 2 == 1:
            odd_part *= p**a
        else:
            even_part *= p**a
    scalar = odd_part * isqrt(even_part)
    expansion = rnu_schur_expansion(n, 1, cap=cap)
    divides = all(c % scalar == 0 and c >= 0 for c in expansion.terms.values())
    return ScalarDivisibility(n, odd_part, even_part, scalar, divides)


@dataclass(frozen=True)
class MultiplicityReport:
    """Closed-form corner multiplicities of R(n, u).

    restriction_regular_copies is n for u <= 1 (where the restriction to
    the subgroup fixing one point is that many regular representations)
    and None otherwise.
    """

    n: int
    u: int
    trivial: int
    sign: int
    hook_n_minus_1_1: int
    hook_2_ones: int
    restriction_regular_copies: Optional[int]


def multiplicity_report(n: int, u: int) -> MultiplicityReport:
    if n < 2:
        raise ValueError(f"multiplicity_report requires n >= 2, got {n}")
    t, s = _corners(n, u)
    return MultiplicityReport(
        n=n,
        u=u,
        trivial=t,
        sign=s,
        hook_n_minus_1_1=n - t,
        hook_2_ones=n - s,
        restriction_regular_copies=n if u <= 1 else None,
    )


@dataclass(frozen=True)
class SwansonViolation:
    """Mismatch between a computed zero multiplicity and the predicted set."""

    shape: Partition
    r: int
    multiplicity: int
    expected_zero: bool


def _predicted_zero_set(n: int) -> set[tuple[Partition, int]]:
    zeros: set[tuple[Partition, int]] = set()
    row = (n,)
    for r in range(1, n):
        zeros.add((row, r))
    ones = (1,) * n
    if n % 2 == 1:
        for r in range(1, n):
            zeros.add((ones, r))
    else:
        for r in range(1, n + 1):
            if r != n // 2:
                zeros.add((ones, r))
    if n >= 2:
        hook = (n - 1, 1) if n > 2 else (1, 1)
        zeros.add((hook, n))
        cohook = (2,) + (1,) * (n - 2)
        zeros.add((cohook, n if n % 2 == 1 else n // 2))
    if n == 4:
        zeros.update({((2, 2), 1), ((2, 2), 3)})
    if n == 6:
        zeros.update({((2, 2, 2), 1), ((2, 2, 2), 5), ((3, 3), 2), ((3, 3), 4)})
    return zeros


def swanson_vanishing_check(n: int, *, cap: int | None = None) -> list[SwansonViolation]:
    """Compare actual zero Foulkes multiplicities with the predicted set.

    Returns one violation per (shape, r) where they disagree; an empty
    list means the classification holds at n.
    """
    if n < 2:
        raise ValueError(f"swanson_vanishing_check requires n >= 2, got {n}")
    limit = DEFAULT_CAPS.maj_degree if cap is None else cap
    if n > limit:
        raise CapExceeded(f"n = {n} exceeds the oracle cap {limit}")
    predicted = _predicted_zero_set(n)
    violations = []
    for r in range(1, n + 1):
        mults = _ell_terms(n, gcd(n, r))
        for lam in partition_list(n):
            mult = mults.get(lam, 0)
            expected = (lam, r) in predicted
            if (mult == 0) != expected:
                violations.append(SwansonViolation(lam, r, mult, expected))
    return violations
