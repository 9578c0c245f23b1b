"""The three workloads: inputs made from the seed, the timed operations, and
the checks on their outputs.

Each workload is a `Workload` with three steps.  `inputs(seed)` is
set-up; `run(inputs)` is the timed part and returns one result per
operation (an exception raised by an operation is returned as its result);
`check(inputs, results)` runs after the timer stops and reports every
operation that failed.  The checks do not depend on the seed.

- grid:  the paper's published verdict table, 231 `check_positivity(n, u)`
         calls in one process, in an order shuffled by the seed.
- sweep: the open R(n, 2) question as a shell user runs it, two CLI
         processes: `table` over n = 1..45, u <= 2, and the JSON dump of
         R(45, 2) read through a pipe.
- ell:   arithmetic layers only: `rnu_ell_expansion` on highly composite n
         and on n in [10^11, 10^12] with a large prime factor, plus
         `row_sums` and `build_matrix` over a contiguous range of n.
"""

from __future__ import annotations

import functools
import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import ramschur
from ramschur.reference import reference_positivity_table

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


@dataclass
class Outcome:
    """Operations attempted and one message per failed operation."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, label: str, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")


def timed(ops: list, call: Callable[[Any], Any]) -> list:
    """[(result, seconds)] for each op; a raised exception is the op's result."""
    out = []
    clock = time.perf_counter
    for op in ops:
        start = clock()
        try:
            result = call(op)
        except Exception as exc:  # a failed operation, reported by the checks
            result = exc
        out.append((result, clock() - start))
    return out


def _raised(result) -> Optional[str]:
    return f"raised {result!r}" if isinstance(result, Exception) else None


# ---------------------------------------------------------------- grid


def grid_inputs(seed: int) -> list:
    cells = sorted(reference_positivity_table())
    random.Random(seed).shuffle(cells)
    return cells


def grid_run(cells: list) -> list:
    return timed(cells, lambda cell: ramschur.check_positivity(*cell))


def witness_key(n: int, u: int) -> str:
    return f"{n},{u}"


def witness_record(verdict) -> Optional[list]:
    if verdict.witness is None:
        return None
    shape, coeff = verdict.witness
    return [list(shape), str(coeff)]


def grid_problem(cell, verdict, reference: dict, witnesses: dict) -> Optional[str]:
    raised = _raised(verdict)
    if raised:
        return raised
    if verdict.schur_positive != reference[cell]:
        return f"verdict {verdict.schur_positive}, published {reference[cell]}"
    got = witness_record(verdict)
    want = witnesses.get(witness_key(*cell))
    if got != want:
        return f"witness {got}, recorded {want}"
    return None


def grid_check(cells: list, results: list) -> Outcome:
    reference = reference_positivity_table()
    witnesses = load_expected()["grid"]["witnesses"]
    outcome = Outcome()
    for cell, (verdict, _) in zip(cells, results):
        outcome.record(f"R{cell}", grid_problem(cell, verdict, reference, witnesses))
    return outcome


# ---------------------------------------------------------------- sweep

SWEEP_N_MAX = 45
SWEEP_U_MAX = 2


def sweep_inputs(seed: int) -> list:
    """argv lists of the two CLI commands; the seed orders the table columns."""
    ns = list(range(1, SWEEP_N_MAX + 1))
    random.Random(seed).shuffle(ns)
    table = ["table", "--n", ",".join(map(str, ns)), "--u-max", str(SWEEP_U_MAX)]
    rnu = ["rnu", "--n", str(SWEEP_N_MAX), "--u", str(SWEEP_U_MAX), "--format", "json"]
    return [table, rnu]


def cli_command(argv: list) -> list:
    return [sys.executable, "-m", "ramschur.cli", *argv]


def sweep_run(commands: list) -> list:
    return timed(commands, lambda argv: subprocess.run(cli_command(argv), capture_output=True))


def _argv_value(argv: list, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def table_problem(text: str, ns: list, u_max: int) -> Optional[str]:
    """The text table must list ns in order, rows u = 0..u_max, and all Y."""
    lines = text.splitlines()
    if len(lines) != u_max + 2:
        return f"{len(lines)} lines, expected {u_max + 2}"
    header = lines[0].split()
    if header[0] != "u\\n" or [int(tok) for tok in header[1:]] != ns:
        return "header does not list the requested n"
    for u, line in enumerate(lines[1:]):
        cells = line.split()
        if cells[0] != str(u) or len(cells) != len(ns) + 1:
            return f"malformed row {u}"
        for n, verdict in zip(ns, cells[1:]):
            if verdict != "Y":
                return f"R({n},{u}) is {verdict}, expected Y"
    return None


_factorial = functools.lru_cache(maxsize=None)(math.factorial)


def syt_count_beta(shape) -> int:
    """f^shape = n! * prod_{i<j} (b_i - b_j) / prod b_i!, b the beta numbers.

    Independent of the library, which uses the hook length formula.
    """
    size = sum(shape)
    rows = len(shape)
    beta = [part + rows - 1 - i for i, part in enumerate(shape)]
    num = _factorial(size)
    den = 1
    for i, b in enumerate(beta):
        den *= _factorial(b)
        for c in beta[i + 1 :]:
            num *= b - c
    count, rem = divmod(num, den)
    if rem:
        raise ValueError(f"beta-number quotient not integral for {shape}")
    return count


def expansion_problem(doc: dict, n: int, u: int) -> Optional[str]:
    """Checks on the JSON Schur expansion of R(n, u) that hold for every (n, u).

    The coefficients of s_(n) and s_(1^n) are the trivial and sign
    multiplicities, and sum_lambda c_lambda * f^lambda = n!: by column
    orthogonality only the p_1^n term of R(n, u) survives, with weight
    c_1(n)^u = 1.
    """
    if (doc.get("kind"), doc.get("n"), doc.get("u")) != ("schur-expansion", n, u):
        return "wrong document header"
    terms = {}
    for term in doc["terms"]:
        shape = tuple(term["partition"])
        if sum(shape) != n or list(shape) != sorted(shape, reverse=True) or shape in terms:
            return f"bad partition {list(shape)}"
        terms[shape] = int(term["coeff"])
    if terms.get((n,), 0) != ramschur.trivial_multiplicity(n, u):
        return "coefficient of s_(n) is not the trivial multiplicity"
    if terms.get((1,) * n, 0) != ramschur.sign_multiplicity(n, u):
        return "coefficient of s_(1^n) is not the sign multiplicity"
    if sum(c * syt_count_beta(shape) for shape, c in terms.items()) != math.factorial(n):
        return "sum of c_lambda * f^lambda is not n!"
    return None


def sweep_problem(argv: list, proc) -> Optional[str]:
    raised = _raised(proc)
    if raised:
        return raised
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}"
    if argv[0] == "table":
        ns = [int(tok) for tok in _argv_value(argv, "--n").split(",")]
        return table_problem(proc.stdout.decode(), ns, int(_argv_value(argv, "--u-max")))
    doc = json.loads(proc.stdout)
    if any(int(term["coeff"]) <= 0 for term in doc["terms"]):
        return "a Schur coefficient of a positive R(n, u) is not positive"
    return expansion_problem(doc, int(_argv_value(argv, "--n")), int(_argv_value(argv, "--u")))


def sweep_check(commands: list, results: list) -> Outcome:
    outcome = Outcome()
    for argv, (proc, _) in zip(commands, results):
        outcome.record(argv[0], sweep_problem(argv, proc))
    return outcome


# ---------------------------------------------------------------- ell

# Highly composite numbers with 240 to 576 divisors: the Ramanujan-sum memo
# is hit about 2 * tau(n)^2 times per call.  Each n is expanded at u = 0 and
# at one seeded u; the cost does not depend on u.
ELL_HIGHLY_COMPOSITE = (
    720720, 1081080, 1441440, 2162160, 2882880, 3603600, 4324320,
    6486480, 7207200, 8648640, 10810800, 14414400, 17297280, 21621600,
)
# n = m * q with q prime and n in [10^11, 10^12].  Every divisor m' * q misses
# the factorization memo and is trial-divided up to sqrt(q).  One q is drawn
# from each of ELL_LARGE_STRATA geometric bands per cofactor, so each seed
# does the same amount of trial division.
ELL_LARGE_COFACTORS = (1, 2, 6, 30, 210, 2310)
ELL_LARGE_STRATA = 20
ELL_LARGE_RANGE = (10**11, 10**12)
# row_sums and build_matrix over one fixed range of consecutive n, below the
# smallest highly composite n above.  The range does not move with the seed:
# the sum of tau(n)^2 that sets its cost varies by tens of percent between
# ranges, which would read as run-to-run noise.
ELL_RANGE = range(600_000, 602_000)
ELL_U_MAX = 20

_MR_BASES = (2, 3, 5, 7, 11, 13, 17)  # deterministic below 3.4 * 10^14


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


def ell_large_ns(rng: random.Random) -> list:
    lo, hi = ELL_LARGE_RANGE
    out = []
    for m in ELL_LARGE_COFACTORS:
        # Band edges lo/m * (hi/lo)^(i/S); a prime gap below 10^12 is far
        # under 2000, so next_prime stays inside its band.
        edges = [lo // m * (hi / lo) ** (i / ELL_LARGE_STRATA) for i in range(ELL_LARGE_STRATA + 1)]
        for a, b in zip(edges, edges[1:]):
            out.append(m * next_prime(rng.randrange(int(a) + 1, int(b) - 2000)))
    return out


def ell_inputs(seed: int) -> list:
    rng = random.Random(seed)
    ops = []
    for n in ELL_HIGHLY_COMPOSITE:
        ops += [("ell", n, 0), ("ell", n, rng.randint(1, ELL_U_MAX))]
    ops += [("ell", n, rng.randint(0, ELL_U_MAX)) for n in ell_large_ns(rng)]
    for n in ELL_RANGE:
        ops += [("row_sums", n), ("build_matrix", n)]
    rng.shuffle(ops)
    return ops


_ELL_CALLS = {
    "ell": ramschur.rnu_ell_expansion,
    "row_sums": ramschur.row_sums,
    "build_matrix": ramschur.build_matrix,
}


def ell_run(ops: list) -> list:
    return timed(ops, lambda op: _ELL_CALLS[op[0]](*op[1:]))


def ell_expansion_problem(n: int, u: int, expansion) -> Optional[str]:
    """Every coefficient equals the block-product Y; for u = 0 they sum to n."""
    for k in expansion.coeffs:
        if n % k:
            return f"coefficient at non-divisor {k}"
    for k in ramschur.divisors(n):
        if expansion.coefficient(k) != ramschur.y_coefficient_structural(n, n // k, u):
            return f"coefficient of ell({n},{k}) differs from the structural Y"
    if u == 0 and sum(expansion.coeffs.values()) != n:
        return "ell coefficients of R(n, 0) do not sum to n"
    return None


def matrix_problem(n: int, matrix) -> Optional[str]:
    if matrix.divisors != ramschur.divisors(n):
        return "rows are not indexed by the divisors"
    if sum(sum(row) for row in matrix.rows) != n:
        return "entries do not sum to n"
    return None


def row_sums_problem(sums: dict, matrix) -> Optional[str]:
    """Closed-form row sums must equal the summed rows of the matrix of n."""
    if isinstance(matrix, Exception):
        return "no matrix to compare with"
    if sums != {d: sum(row) for d, row in zip(matrix.divisors, matrix.rows)}:
        return "closed-form row sums differ from the matrix rows"
    return None


def ell_check(ops: list, results: list) -> Outcome:
    matrices = {op[1]: r for op, (r, _) in zip(ops, results) if op[0] == "build_matrix"}
    outcome = Outcome()
    for op, (result, _) in zip(ops, results):
        problem = _raised(result)
        if problem is None:
            if op[0] == "ell":
                problem = ell_expansion_problem(op[1], op[2], result)
            elif op[0] == "build_matrix":
                problem = matrix_problem(op[1], result)
            else:
                problem = row_sums_problem(result, matrices[op[1]])
        outcome.record(f"{op[0]}{op[1:]}", problem)
    return outcome


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], list]
    run: Callable[[list], list]
    check: Callable[[list, list], Outcome]


WORKLOADS = {
    "grid": Workload(grid_inputs, grid_run, grid_check),
    "sweep": Workload(sweep_inputs, sweep_run, sweep_check),
    "ell": Workload(ell_inputs, ell_run, ell_check),
}
