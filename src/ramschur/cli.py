"""Command-line interface.

Commands: ram, foulkes, rnu, table, verify.  Global flags --format
(text, csv, json) and --max-n (raises the expansion caps, or bounds
verify sweeps).  Output is deterministic for fixed inputs; JSON carries
every coefficient, of any size, as a decimal string.

There is one render path.  Each command computes its result and hands
`_write` three thunks: its JSON document, its CSV rows (header row
first) and its text; only the requested format is built, and JSON is
streamed to stdout as it is encoded.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import islice
from typing import Callable, Iterable, Optional

from .config import DEFAULT_CAPS
from .errors import CapExceeded
from .foulkes import (
    check_positivity,
    foulkes_schur_multiplicities,
    rnu_ell_expansion,
    rnu_schur_expansion,
)
from .ramat import build_matrix, row_sums, signed_trace, trace
from .reference import reference_positivity_table
from .verify import SUITE_NAMES, run_suite

__all__ = ["main"]


def _schur_cap(max_n: Optional[int]) -> int:
    if max_n is None:
        return DEFAULT_CAPS.schur_degree
    if max_n > DEFAULT_CAPS.schur_degree:
        print(
            f"warning: raising the expansion degree cap to {max_n}; "
            "memory grows quickly with the partition count",
            file=sys.stderr,
        )
    return max_n


def _write(
    fmt: str, doc: Callable[[], dict], rows: Callable[[], Iterable], text: Callable[[], str]
) -> None:
    """Write one command's result to stdout; no other code does.

    `doc`, `rows` (header row first) and `text` are each called only for
    their own format.  JSON is written while it is encoded, a block of
    tokens at a time.
    """
    out = sys.stdout  # looked up per call, so a caller's redirect takes effect
    if fmt == "json":
        chunks = json.JSONEncoder(indent=2).iterencode(doc())
        # joined before writing: one write per token is far slower on a pipe
        while block := "".join(islice(chunks, 65536)):
            out.write(block)
        out.write("\n")
    elif fmt == "csv":
        csv.writer(out, lineterminator="\n").writerows(rows())
    else:
        out.write(text() + "\n")


def _signed_sum(items, label: Callable) -> str:
    """`3 s[4] - 2 s[3,1]` from (key, coeff) pairs; `0` when there are none."""
    parts = []
    for key, c in items:
        body = f"{abs(c)} {label(key)}"
        if parts:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts) or "0"


def _schur_output(head: dict, expansion) -> tuple:
    """`_write`'s document, rows and text for a Schur expansion."""
    items = expansion.items_desc()

    def doc():
        return {**head, "terms": [{"partition": list(lam), "coeff": str(c)} for lam, c in items]}

    def rows():
        yield ["partition", "coeff"]
        for lam, c in items:
            yield [" ".join(map(str, lam)), str(c)]

    return doc, rows, lambda: _signed_sum(items, lambda lam: f"s[{','.join(map(str, lam))}]")


def cmd_ram(args) -> int:
    n, what = args.n, args.what
    if what == "signed-trace" and n % 2 != 0:
        raise ValueError("signed-trace is defined for even n only")
    doc = {"kind": "matrix", "n": n, "what": what}
    if what == "matrix":
        m = build_matrix(n)
        divs = [str(d) for d in m.divisors]
        doc["divisors"] = list(m.divisors)
        doc["rows"] = [[str(v) for v in row] for row in m.rows]
        labelled = [[d, *row] for d, row in zip(divs, doc["rows"])]

        def text():
            width = max(len(v) for row in labelled for v in row)
            lines = [f"n = {n}, divisors: {' '.join(divs)}"]
            for label, *row in [["", *divs], *labelled]:
                lines.append(f"{label:>{width}}  " + " ".join(f"{v:>{width}}" for v in row))
            return "\n".join(lines)

        _write(args.format, lambda: doc, lambda: [["d", *divs], *labelled], text)
    elif what == "rowsums":
        sums = [(d, str(v)) for d, v in sorted(row_sums(n).items())]
        doc["terms"] = [{"divisor": d, "coeff": v} for d, v in sums]
        _write(
            args.format,
            lambda: doc,
            lambda: [["divisor", "rowsum"], *sums],
            lambda: "\n".join(f"{d}: {v}" for d, v in sums),
        )
    else:
        value = str(trace(n) if what == "trace" else signed_trace(n))
        doc["value"] = value
        rows = [["n", "what", "value"], [n, what, value]]
        _write(args.format, lambda: doc, lambda: rows, lambda: value)
    return 0


def cmd_foulkes(args) -> int:
    cap = _schur_cap(args.max_n)
    expansion = foulkes_schur_multiplicities(args.n, args.r, cap=cap)
    head = {"kind": "schur-expansion", "n": args.n, "r": args.r}
    _write(args.format, *_schur_output(head, expansion))
    return 0


def cmd_rnu(args) -> int:
    head = {"kind": f"{args.basis}-expansion", "n": args.n, "u": args.u}
    if args.basis == "ell":
        items = rnu_ell_expansion(args.n, args.u).items_asc()
        _write(
            args.format,
            lambda: {**head, "terms": [{"divisor": k, "coeff": str(c)} for k, c in items]},
            lambda: [["divisor", "coeff"]] + [[k, str(c)] for k, c in items],
            lambda: _signed_sum(reversed(items), lambda k: f"l[{k}]"),
        )
        return 0
    cap = _schur_cap(args.max_n)
    if args.n > cap:
        raise CapExceeded(f"n = {args.n} exceeds the cap {cap}; raise it with --max-n")
    _write(args.format, *_schur_output(head, rnu_schur_expansion(args.n, args.u, cap=cap)))
    return 0


def _parse_n_list(raw: str) -> list[int]:
    try:
        ns = [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"--n expects a comma-separated integer list, got {raw!r}")
    if not ns or any(n < 1 for n in ns):
        raise ValueError(f"--n expects positive integers, got {raw!r}")
    return ns


def cmd_table(args) -> int:
    ns = _parse_n_list(args.n)
    u_max = args.u_max
    if u_max < 0:
        raise ValueError(f"--u-max must be >= 0, got {u_max}")
    cap = _schur_cap(args.max_n)
    columns = [
        ["Y" if check_positivity(n, u, cap=cap).schur_positive else "N" for u in range(u_max + 1)]
        for n in ns
    ]
    verdicts = list(zip(*columns))  # one row per u
    doc = {
        "kind": "positivity-table",
        "ns": ns,
        "u_max": u_max,
        "rows": [{"u": u, "verdicts": verdicts[u]} for u in range(u_max + 1)],
    }

    mismatches = []
    if args.expected:
        expected = reference_positivity_table()
        for n, column in zip(ns, columns):
            for u, got in enumerate(column):
                want = "Y" if expected.get((n, u)) else "N"
                if (n, u) in expected and want != got:
                    mismatches.append({"n": n, "u": u, "computed": got, "expected": want})
        doc["expected_mismatches"] = mismatches

    def rows():
        out = [["u", *map(str, ns)]] + [[str(u), *verdicts[u]] for u in range(u_max + 1)]
        return out + [["mismatches", str(len(mismatches))]] if args.expected else out

    def text():
        width = max(3, max(len(str(n)) for n in ns) + 1)
        lines = ["u\\n " + "".join(f"{n:>{width}}" for n in ns)]
        for u in range(u_max + 1):
            lines.append(f"{u:<4}" + "".join(f"{v:>{width}}" for v in verdicts[u]))
        if args.expected:
            lines += [
                f"MISMATCH at n={m['n']}, u={m['u']}: computed {m['computed']}, "
                f"expected {m['expected']}"
                for m in mismatches
            ] or ["expected: all cells match"]
        return "\n".join(lines)

    _write(args.format, lambda: doc, rows, text)
    return 1 if mismatches else 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite, args.max_n)
    all_passed = all(r.passed for r in results)
    doc = {
        "kind": "verify-report",
        "suite": args.suite,
        "max_n": args.max_n,
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
        "all_passed": all_passed,
    }

    def text():
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.name}" + (f" ({r.detail})" if r.detail else "")
            for r in results
        ]
        passed = sum(1 for r in results if r.passed)
        return "\n".join(lines + [f"suite {args.suite}: {passed}/{len(results)} checks passed"])

    def rows():
        return [["name", "passed", "detail"]] + [
            [r.name, "yes" if r.passed else "no", r.detail] for r in results
        ]

    _write(args.format, lambda: doc, rows, text)
    return 0 if all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "csv", "json"), default="text", help="output format"
    )
    common.add_argument(
        "--max-n",
        type=int,
        default=None,
        help="raise a resource cap, or bound a verify sweep",
    )

    parser = argparse.ArgumentParser(
        prog="ramschur",
        description="Exact Ramanujan sums, Foulkes characters, and Schur positivity of R(n, u).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ram = sub.add_parser("ram", parents=[common], help="Ramanujan matrix, row sums, traces")
    p_ram.add_argument("--n", type=int, required=True)
    p_ram.add_argument(
        "--what",
        choices=("matrix", "rowsums", "trace", "signed-trace"),
        default="matrix",
    )
    p_ram.set_defaults(func=cmd_ram)

    p_foulkes = sub.add_parser(
        "foulkes", parents=[common], help="Schur multiplicities of a Foulkes character"
    )
    p_foulkes.add_argument("--n", type=int, required=True)
    p_foulkes.add_argument("--r", type=int, required=True)
    p_foulkes.set_defaults(func=cmd_foulkes)

    p_rnu = sub.add_parser("rnu", parents=[common], help="expand R(n, u) in a chosen basis")
    p_rnu.add_argument("--n", type=int, required=True)
    p_rnu.add_argument("--u", type=int, required=True)
    p_rnu.add_argument("--basis", choices=("ell", "schur"), default="schur")
    p_rnu.set_defaults(func=cmd_rnu)

    p_table = sub.add_parser(
        "table", parents=[common], help="Schur-positivity verdict grid for R(n, u)"
    )
    p_table.add_argument("--n", required=True, help="comma-separated list of n values")
    p_table.add_argument("--u-max", type=int, default=20)
    p_table.add_argument(
        "--expected",
        action="store_true",
        help="compare against the embedded reference table",
    )
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # Coefficients of any size are written; in-process callers get the limit back.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
