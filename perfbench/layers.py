"""The traced pass: per-layer times and counts, measured from outside `src/`.

Each module's public functions are called bottom-up on the workload's
inputs and every call is timed.  Lower layers are filled cold first, so an
upper layer's span on warm lower caches is its self time.  Where one call
contains another (`check_positivity` contains `rnu_schur_expansion`,
`cli.main` contains the library call), the self time is the difference
between the two, measured back to back per call.

A workload is traced in one or more parts, each in a fresh process, as the
workload itself runs: the sweep's two CLI commands are two processes, so
each builds its own rectangles.  The runner sums the parts.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field

import ramschur
from ramschur import cli
from ramschur.reference import reference_positivity_table
from ramschur.symfunc import partition_list

import workloads
from measure import peak_rss_mb

# Spans whose sum is the work of the timed operations; reference.load is
# set-up and is left out of trace.coverage.
WORK_SPANS = (
    "arith.divisors",
    "arith.factorize",
    "ramat.row_sums",
    "ramat.build_matrix",
    "foulkes.y",
    "symfunc.rectangle",
    "foulkes.weighted_sum",
    "foulkes.scan",
    "cli.render",
)


@dataclass
class Plan:
    """What one process of a workload asks of each layer."""

    ns: list = field(default_factory=list)  # every n the operations factor
    range_ns: list = field(default_factory=list)  # row_sums and build_matrix
    y_cells: list = field(default_factory=list)  # rnu_ell_expansion(n, u)
    decisions: list = field(default_factory=list)  # check_positivity(n, u)
    expansions: list = field(default_factory=list)  # rnu_schur_expansion(n, u)
    commands: list = field(default_factory=list)  # CLI argv lists


def plans(workload: str, seed: int) -> list:
    if workload == "grid":
        cells = workloads.grid_inputs(seed)
        ns = sorted({n for n, _ in cells})
        return [Plan(ns=ns, y_cells=cells, decisions=cells)]
    if workload == "sweep":
        table, rnu = workloads.sweep_inputs(seed)
        ns = [int(tok) for tok in table[table.index("--n") + 1].split(",")]
        cells = [(n, u) for n in ns for u in range(workloads.SWEEP_U_MAX + 1)]
        n, u = workloads.SWEEP_N_MAX, workloads.SWEEP_U_MAX
        return [
            Plan(ns=ns, y_cells=cells, decisions=cells, commands=[table]),
            Plan(ns=[n], expansions=[(n, u)], commands=[rnu]),
        ]
    if workload == "ell":
        ops = workloads.ell_inputs(seed)
        range_ns = sorted({op[1] for op in ops if op[0] == "build_matrix"})
        return [
            Plan(
                ns=sorted({op[1] for op in ops}),
                range_ns=range_ns,
                y_cells=[op[1:] for op in ops if op[0] == "ell"],
            )
        ]
    raise ValueError(f"unknown workload {workload!r}")


class Tracer:
    """Spans kept in memory: (name, start, end)."""

    def __init__(self):
        self.spans = []

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, start, time.perf_counter()))

    def seconds(self, name: str) -> float:
        """Total length of the spans called name.

        A layer the pass never entered gets one empty span here, so that its
        time is measured (well under a microsecond) rather than a constant 0.
        """
        if not any(span == name for span, _, _ in self.spans):
            with self.span(name):
                pass
        return sum(end - start for span, start, end in self.spans if span == name)


def _rectangle_pairs(cells) -> list:
    """(n, d) pairs whose p_d^(n/d) the weighted sums of cells read."""
    pairs = set()
    for n, u in cells:
        for d in ramschur.divisors(n):
            if ramschur.ramanujan_sum(d, n // d) ** u:
                pairs.add((n, d))
    return sorted(pairs)


def _render(tracer: Tracer, argv: list, library_call) -> int:
    """Time cli.main(argv) and, right after, the library call it makes.

    Records both spans and returns the bytes main wrote to stdout.
    """
    out = io.StringIO()
    with tracer.span("cli.main"), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    with tracer.span("cli.library"):
        library_call()
    if code != 0:
        raise RuntimeError(f"ramschur {argv[0]} exited {code}")
    return len(out.getvalue().encode())


def trace_part(workload: str, seed: int, part: int) -> dict:
    tracer = Tracer()
    with tracer.span("reference.load"):
        if workload == "grid":  # the only workload whose inputs come from the corpus
            reference_positivity_table()
    plan = plans(workload, seed)[part]

    with tracer.span("arith.divisors"):
        for n in plan.ns:
            ramschur.divisors(n)
    with tracer.span("arith.factorize"):
        for n in plan.ns:
            for d in ramschur.divisors(n):
                ramschur.factorize(d)

    with tracer.span("ramat.row_sums"):
        for n in plan.range_ns:
            ramschur.row_sums(n)
    with tracer.span("ramat.build_matrix"):
        for n in plan.range_ns:
            ramschur.build_matrix(n)

    ell_fast = {}
    with tracer.span("foulkes.y"):
        for n, u in plan.y_cells:
            ell_fast[(n, u)] = min(ramschur.rnu_ell_expansion(n, u).coeffs.values()) >= 0

    full = [cell for cell in plan.decisions if not ell_fast[cell]]
    rectangle_terms = 0
    pairs = _rectangle_pairs(full + plan.expansions)
    with tracer.span("symfunc.rectangle"):
        for n, d in pairs:
            rectangle_terms += len(ramschur.power_sum_rectangle_expansion(n, d))
    rss_after_rectangles = peak_rss_mb()

    # check_positivity on warm caches, each followed by the weighted sum it
    # contains; the scan is the difference.
    full_useful = quick_reject_decidable = 0
    witness_rank_max = -1
    for cell in plan.decisions:
        with tracer.span("foulkes.decide"):
            verdict = ramschur.check_positivity(*cell)
        if not ell_fast[cell]:
            with tracer.span("foulkes.contained_sum"):
                ramschur.rnu_schur_expansion(*cell)
            full_useful += verdict.schur_positive
        quick_reject_decidable += ramschur.quick_reject(*cell) is not None
        if verdict.witness is not None:
            rank = partition_list(cell[0]).index(verdict.witness[0])
            witness_rank_max = max(witness_rank_max, rank)
    for cell in plan.expansions:
        with tracer.span("foulkes.weighted_sum"):
            ramschur.rnu_schur_expansion(*cell)

    output_bytes = 0
    for argv in plan.commands:
        if argv[0] == "table":
            call = lambda: [ramschur.check_positivity(*cell) for cell in plan.decisions]
        else:
            call = lambda: [ramschur.rnu_schur_expansion(*cell) for cell in plan.expansions]
        output_bytes += _render(tracer, argv, call)

    direct = ("reference.load", "arith.divisors", "arith.factorize", "ramat.row_sums",
              "ramat.build_matrix", "foulkes.y", "symfunc.rectangle")
    seconds = {name: tracer.seconds(name) for name in direct}
    contained = tracer.seconds("foulkes.contained_sum")
    seconds["foulkes.weighted_sum"] = tracer.seconds("foulkes.weighted_sum") + contained
    seconds["foulkes.scan"] = (tracer.seconds("foulkes.decide") - contained
                               if plan.decisions else tracer.seconds("foulkes.scan"))
    seconds["cli.render"] = (tracer.seconds("cli.main") - tracer.seconds("cli.library")
                             if plan.commands else tracer.seconds("cli.render"))
    counts = {
        "arith.divisors_cache_entries": ramschur.divisors.cache_info().currsize,
        "symfunc.rectangle_calls": len(pairs),
        "symfunc.rectangle_terms": rectangle_terms,
        "foulkes.route.ell_fast": len(plan.decisions) - len(full),
        "foulkes.route.full": len(full),
        "foulkes.full_useful": full_useful,
        "foulkes.quick_reject_decidable": quick_reject_decidable,
        "cli.output_bytes": output_bytes,
    }
    return {
        "seconds": seconds,
        "work_s": sum(seconds[name] for name in WORK_SPANS),
        "counts": counts,
        "witness_rank_max": witness_rank_max,
        "rss_mb": rss_after_rectangles,
    }
