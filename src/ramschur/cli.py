"""Command-line interface.

Commands: ram, foulkes, rnu, table, verify.  Global flags --format
(text, csv, json) and --max-n (raises the expansion caps, or bounds
verify sweeps).  Output is deterministic for fixed inputs; JSON carries
every coefficient as a decimal string.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from .config import DEFAULT_CAPS
from .errors import CapExceeded
from .foulkes import (
    check_positivity,
    foulkes_schur_multiplicities,
    rnu_ell_expansion,
    rnu_schur_expansion,
)
from .ramat import build_matrix, row_sums, signed_trace, trace
from .reference import (
    reference_positivity_table,
    reference_table_ns,
    reference_table_u_max,
)
from .verify import SUITE_NAMES, run_suite

__all__ = ["main"]


def _effective_cap(max_n: Optional[int], default: int, what: str) -> int:
    if max_n is None:
        return default
    if max_n > default:
        print(
            f"warning: raising the {what} cap to {max_n}; "
            "memory grows quickly with the partition count",
            file=sys.stderr,
        )
    return max_n


def _schur_terms_payload(expansion) -> list[dict]:
    return [
        {"partition": list(lam), "coeff": str(c)} for lam, c in expansion.items_desc()
    ]


def _ell_terms_payload(expansion) -> list[dict]:
    return [{"divisor": k, "coeff": str(c)} for k, c in expansion.items_asc()]


def _format_schur_text(expansion) -> str:
    items = expansion.items_desc()
    if not items:
        return "0"
    parts = []
    for i, (lam, c) in enumerate(items):
        mag = abs(c)
        body = f"{mag} s[{','.join(map(str, lam))}]"
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)


def _format_ell_text(expansion) -> str:
    items = sorted(expansion.coeffs.items(), reverse=True)
    if not items:
        return "0"
    parts = []
    for i, (k, c) in enumerate(items):
        body = f"{abs(c)} l[{k}]"
        if i == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)


def _emit_csv(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _render_expansion(doc: dict, fmt: str, text: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2)
    if fmt == "csv":
        if doc["kind"] == "schur-expansion":
            rows = [["partition", "coeff"]]
            rows += [[" ".join(map(str, t["partition"])), t["coeff"]] for t in doc["terms"]]
        else:
            rows = [["divisor", "coeff"]]
            rows += [[t["divisor"], t["coeff"]] for t in doc["terms"]]
        return _emit_csv(rows)
    return text


def cmd_ram(args) -> int:
    n = args.n
    what = args.what
    if what == "signed-trace" and n % 2 != 0:
        raise ValueError("signed-trace is defined for even n only")
    if what == "matrix":
        m = build_matrix(n)
        doc = {
            "kind": "matrix",
            "n": n,
            "what": "matrix",
            "divisors": list(m.divisors),
            "rows": [[str(v) for v in row] for row in m.rows],
        }
        if args.format == "json":
            out = json.dumps(doc, indent=2)
        elif args.format == "csv":
            rows = [["d"] + [str(d) for d in m.divisors]]
            rows += [[str(d)] + [str(v) for v in row] for d, row in zip(m.divisors, m.rows)]
            out = _emit_csv(rows)
        else:
            width = max(len(str(v)) for row in m.rows for v in row)
            width = max(width, max(len(str(d)) for d in m.divisors))
            header = " ".join(f"{d:>{width}}" for d in m.divisors)
            lines = [f"n = {n}, divisors: {' '.join(map(str, m.divisors))}"]
            lines.append(f"{'':>{width}}  {header}")
            for d, row in zip(m.divisors, m.rows):
                lines.append(f"{d:>{width}}  " + " ".join(f"{v:>{width}}" for v in row))
            out = "\n".join(lines)
    elif what == "rowsums":
        sums = row_sums(n)
        doc = {
            "kind": "matrix",
            "n": n,
            "what": "rowsums",
            "terms": [{"divisor": d, "coeff": str(v)} for d, v in sorted(sums.items())],
        }
        if args.format == "json":
            out = json.dumps(doc, indent=2)
        elif args.format == "csv":
            rows = [["divisor", "rowsum"]] + [[d, str(v)] for d, v in sorted(sums.items())]
            out = _emit_csv(rows)
        else:
            out = "\n".join(f"{d}: {v}" for d, v in sorted(sums.items()))
    else:
        value = trace(n) if what == "trace" else signed_trace(n)
        doc = {"kind": "matrix", "n": n, "what": what, "value": str(value)}
        if args.format == "json":
            out = json.dumps(doc, indent=2)
        elif args.format == "csv":
            out = _emit_csv([["n", "what", "value"], [n, what, str(value)]])
        else:
            out = str(value)
    print(out)
    return 0


def cmd_foulkes(args) -> int:
    cap = _effective_cap(args.max_n, DEFAULT_CAPS.schur_degree, "expansion degree")
    expansion = foulkes_schur_multiplicities(args.n, args.r, cap=cap)
    doc = {
        "kind": "schur-expansion",
        "n": args.n,
        "r": args.r,
        "terms": _schur_terms_payload(expansion),
    }
    print(_render_expansion(doc, args.format, _format_schur_text(expansion)))
    return 0


def cmd_rnu(args) -> int:
    if args.basis == "ell":
        expansion = rnu_ell_expansion(args.n, args.u)
        doc = {
            "kind": "ell-expansion",
            "n": args.n,
            "u": args.u,
            "terms": _ell_terms_payload(expansion),
        }
        text = _format_ell_text(expansion)
    else:
        cap = _effective_cap(args.max_n, DEFAULT_CAPS.schur_degree, "expansion degree")
        if args.n > cap:
            raise CapExceeded(f"n = {args.n} exceeds the cap {cap}; raise it with --max-n")
        expansion = rnu_schur_expansion(args.n, args.u, cap=cap)
        doc = {
            "kind": "schur-expansion",
            "n": args.n,
            "u": args.u,
            "terms": _schur_terms_payload(expansion),
        }
        text = _format_schur_text(expansion)
    print(_render_expansion(doc, args.format, text))
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
    cap = _effective_cap(args.max_n, DEFAULT_CAPS.schur_degree, "expansion degree")

    columns = [
        [check_positivity(n, u, cap=cap).schur_positive for u in range(u_max + 1)] for n in ns
    ]

    verdicts = [["Y" if columns[j][u] else "N" for j in range(len(ns))] for u in range(u_max + 1)]
    doc = {
        "kind": "positivity-table",
        "ns": ns,
        "u_max": u_max,
        "rows": [{"u": u, "verdicts": verdicts[u]} for u in range(u_max + 1)],
    }

    mismatches = []
    if args.expected:
        expected = reference_positivity_table()
        known = set(reference_table_ns())
        for j, n in enumerate(ns):
            for u in range(u_max + 1):
                if n in known and u <= reference_table_u_max():
                    want = expected[(n, u)]
                    got = columns[j][u]
                    if want != got:
                        mismatches.append(
                            {"n": n, "u": u, "computed": "Y" if got else "N", "expected": "Y" if want else "N"}
                        )
        doc["expected_mismatches"] = mismatches

    if args.format == "json":
        out = json.dumps(doc, indent=2)
    elif args.format == "csv":
        rows = [["u"] + [str(n) for n in ns]]
        rows += [[str(u)] + verdicts[u] for u in range(u_max + 1)]
        if args.expected:
            rows.append(["mismatches"] + [str(len(mismatches))])
        out = _emit_csv(rows)
    else:
        width = max(3, max(len(str(n)) for n in ns) + 1)
        lines = ["u\\n " + "".join(f"{n:>{width}}" for n in ns)]
        for u in range(u_max + 1):
            lines.append(f"{u:<4}" + "".join(f"{v:>{width}}" for v in verdicts[u]))
        if args.expected:
            if mismatches:
                for m in mismatches:
                    lines.append(
                        f"MISMATCH at n={m['n']}, u={m['u']}: computed {m['computed']}, "
                        f"expected {m['expected']}"
                    )
            else:
                lines.append("expected: all cells match")
        out = "\n".join(lines)
    print(out)
    return 1 if mismatches else 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite, args.max_n)
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        doc = {
            "kind": "verify-report",
            "suite": args.suite,
            "max_n": args.max_n,
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
            "all_passed": all_passed,
        }
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        rows = [["name", "passed", "detail"]]
        rows += [[r.name, "yes" if r.passed else "no", r.detail] for r in results]
        print(_emit_csv(rows))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status} {r.name}" + (f" ({r.detail})" if r.detail else ""))
        passed = sum(1 for r in results if r.passed)
        print(f"suite {args.suite}: {passed}/{len(results)} checks passed")
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
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
