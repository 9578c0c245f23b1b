"""One fresh benchmark process; the runner starts it and reads its last line.

    python3 perfbench/worker.py --workload grid --seed 1 --mode run

--mode setup   set up (import ramschur, make the inputs) and report the
               clock reading at which the first operation would be issued.
--mode run     set up, run the timed operations, check them outside the
               timed span, and report time, CPU, peak RSS and failures.
--mode trace   run part --part of the traced per-layer pass (layers.py).

`ready` is a time.perf_counter() reading; on Linux that clock is
CLOCK_MONOTONIC, which the runner's process shares.
"""

from __future__ import annotations

import argparse
import json
import time

from measure import Snapshot, summarize, usage_between
import workloads

# At most this many failure messages are passed back; the count is exact.
_FAILURES_SHOWN = 5


def _run(workload: workloads.Workload, seed: int, setup_only: bool) -> dict:
    inputs = workload.inputs(seed)
    ready = time.perf_counter()
    if setup_only:
        return {"ready": ready}
    start = Snapshot.take()
    results = workload.run(inputs)
    end = Snapshot.take()
    usage = usage_between(start, end)
    outcome = workload.check(inputs, results)
    return {
        "ready": ready,
        "wall_s": usage.wall_s,
        "cpu_s": usage.cpu_s,
        "peak_rss_mb": usage.peak_rss_mb,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures[:_FAILURES_SHOWN],
        "op_seconds": summarize([seconds for _, seconds in results]),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--part", type=int, default=0)
    args = parser.parse_args()
    if args.mode == "trace":
        import layers

        report = layers.trace_part(args.workload, args.seed, args.part)
    else:
        report = _run(workloads.WORKLOADS[args.workload], args.seed, args.mode == "setup")
    print(json.dumps(report))


if __name__ == "__main__":
    main()
