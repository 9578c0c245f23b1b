"""Rewrite expected.json from the library in ./src.

    PYTHONPATH=src python3 perfbench/record_expected.py

Records the grid's witnesses and, per workload, the exact counts that
run.py gates on.  Run it only when the library is known to be right: the
file is what later versions are checked against.
"""

from __future__ import annotations

import json

import ramschur
import layers
import run
import workloads


def main() -> None:
    witnesses = {}
    for cell in workloads.grid_inputs(0):
        record = workloads.witness_record(ramschur.check_positivity(*cell))
        if record is not None:
            witnesses[workloads.witness_key(*cell)] = record
    expected = {}
    for name in run.WORKLOADS:
        parts = [layers.trace_part(name, 0, part) for part in range(run.TRACE_PARTS[name])]
        counts = run.merge_parts(parts)["counts"]
        expected[name] = {"counts": {key: counts[key] for key in run.GATED_COUNTS}}
    expected["grid"]["witnesses"] = dict(sorted(witnesses.items()))
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
