"""ramschur benchmark: one run of one workload.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 36 --trace 0

Run it from the root of a ramschur source checkout.  Nothing is built: the
library is imported from ./src.  Every repetition of the workload is a
fresh `worker.py` process, so each one pays for its cold caches as a user's
process does.

--trace 0  runs the workload repeatedly for about --seconds of timed work
           (at least once), with set-up-only launches around each
           repetition, and reports the end-to-end metrics: wall_s and cpu_s
           are means over the repetitions, peak_rss_mb and setup_s medians.
--trace 1  runs the workload once untraced and then its traced per-layer
           pass (layers.py), and reports the per-layer metrics.  The exact
           counts of the traced pass must equal expected.json.

The second-to-last line of stdout is a JSON context record (machine,
commit, seed, calibration loop, raw samples); the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean

from measure import calibration_loop, median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("grid", "sweep", "ell")
TRACE_PARTS = {"grid": 1, "sweep": 2, "ell": 1}
# Set-up-only launches before each repetition and after the last; spread
# over the run, they sample more than one machine phase.
SETUP_SAMPLES_PER_REP = 4
# A run must end within 180 s: every worker is killed DEADLINE_S after the
# run starts, and no repetition starts unless one as long as the previous
# would end before then.
DEADLINE_S = 170.0
# Counts of the traced pass that expected.json fixes; every correct version
# of the library gives these values.
GATED_COUNTS = (
    "foulkes.route.ell_fast",
    "foulkes.route.full",
    "foulkes.quick_reject_decidable",
    "foulkes.full_useful",
    "foulkes.witness_rank_max",
    "cli.output_bytes",
)
_FAILURES_SHOWN = 5


class WorkerFailed(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(workload: str, seed: int, mode: str, deadline: float, part: int = 0) -> dict:
    """Run one worker process to completion and return its report.

    The worker gets its own process group, so that a worker killed at the
    deadline takes the CLI processes it started with it.  The report gains
    setup_s (launch to first operation) and process_s (launch to exit).
    """
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--part", str(part)]
    launched = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(deadline - launched, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise WorkerFailed(f"{mode} worker stopped at the run's deadline")
    ended = time.perf_counter()
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {stderr[-500:]}")
    report = json.loads(lines[-1])
    report["process_s"] = ended - launched
    if "ready" in report:
        report["setup_s"] = report.pop("ready") - launched
    return report


class Tally:
    """Operations attempted and failed over a whole run, with a few messages."""

    def __init__(self, started: float):
        self.deadline = started + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, attempted: int, failed: int, messages) -> None:
        self.attempted += attempted
        self.failed += failed
        self.messages.extend(messages[: _FAILURES_SHOWN - len(self.messages)])

    def launch(self, workload: str, seed: int, mode: str, part: int = 0):
        """launch(), counting a worker that fails as one failed operation."""
        try:
            report = launch(workload, seed, mode, self.deadline, part)
        except WorkerFailed as exc:
            self.add(1, 1, [str(exc)])
            return None
        if "attempted" in report:
            self.add(report["attempted"], report["failed"], report["failures"])
        return report


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally, context: dict) -> dict:
    setups, reps = [], []

    def sample_setups():
        for _ in range(SETUP_SAMPLES_PER_REP):
            report = tally.launch(workload, seed, "setup")
            if report:
                setups.append(report["setup_s"])

    # The host's speed drifts over seconds to minutes, so the mean over the
    # longest timed window steadies wall_s and cpu_s best.  A repetition
    # starts if, as long as the last one, it would end less than half of
    # itself past --seconds.
    measured = last_wall = last_process = 0.0
    while measured + last_wall / 2 < seconds and time.perf_counter() + last_process < tally.deadline:
        sample_setups()
        report = tally.launch(workload, seed, "run")
        if report is None:
            break
        reps.append(report)
        setups.append(report["setup_s"])
        measured += report["wall_s"]
        last_wall, last_process = report["wall_s"], report["process_s"]
    sample_setups()
    context["reps"] = [{k: v for k, v in r.items() if k != "failures"} for r in reps]
    context["setup_samples"] = setups
    if not reps:
        return {}
    return {
        "wall_s": (fmean([r["wall_s"] for r in reps]), "s"),
        "cpu_s": (fmean([r["cpu_s"] for r in reps]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB"),
        "setup_s": (median(setups), "s"),
    }


def merge_parts(parts: list) -> dict:
    seconds, counts = {}, {}
    for part in parts:
        for name, value in part["seconds"].items():
            seconds[name] = seconds.get(name, 0.0) + value
        for name, value in part["counts"].items():
            counts[name] = counts.get(name, 0) + value
    counts["foulkes.witness_rank_max"] = max(p["witness_rank_max"] for p in parts)
    return {"seconds": seconds, "counts": counts, "rss_mb": max(p["rss_mb"] for p in parts)}


def per_layer(workload: str, seed: int, tally: Tally, context: dict) -> dict:
    base = tally.launch(workload, seed, "run")
    parts = [tally.launch(workload, seed, "trace", part) for part in range(TRACE_PARTS[workload])]
    context["untraced"] = base and {k: v for k, v in base.items() if k != "failures"}
    context["parts"] = parts
    if base is None or None in parts:
        return {}
    merged = merge_parts(parts)
    seconds, counts = merged["seconds"], merged["counts"]

    expected = json.loads((BENCH_DIR / "expected.json").read_text())[workload]["counts"]
    wrong = [f"{name} = {counts[name]}, expected {expected[name]}"
             for name in GATED_COUNTS if counts[name] != expected[name]]
    tally.add(1, 1 if wrong else 0, wrong)

    metrics = {f"{name}_s": (value, "s") for name, value in seconds.items()}
    metrics.update({name: (value, "count") for name, value in counts.items()})
    metrics["cli.output_bytes"] = (counts["cli.output_bytes"], "bytes")
    metrics["symfunc.rss_mb"] = (merged["rss_mb"], "MB")
    full = counts["foulkes.route.full"]
    metrics["foulkes.full_useful_ratio"] = (counts["foulkes.full_useful"] / full if full else 0.0, "ratio")
    metrics["trace.coverage"] = (sum(p["work_s"] for p in parts) / base["wall_s"], "ratio")
    return metrics


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one ramschur benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ramschur" / "__init__.py").is_file():
        print(f"error: no ramschur sources under {SRC}; run from a ramschur checkout",
              file=sys.stderr)
        return 2

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "calibration_before_s": calibration_loop(),
    }
    tally = Tally(time.perf_counter())
    if args.trace:
        metrics = per_layer(args.workload, args.seed, tally, context)
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds, tally, context)
    context["calibration_after_s"] = calibration_loop()
    context["failures"] = tally.messages
    print(json.dumps({"context": context}))
    if not metrics:
        print("error: no complete repetition; see the context line", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
