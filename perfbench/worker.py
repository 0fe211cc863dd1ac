"""One workload in one process: set up, run the items, check the outputs.

run.py starts this script in a fresh process per measurement, so the
peak RSS it reports belongs to the workload alone.  The script prints
``ready`` once set-up is done (the parent times process start to that
line) and, unless ``--setup-only`` is given, a JSON object as its last
line.  Items run one after another in this one thread: a closed loop with
a single client.  Before each timed item it prints ``calibrate`` and
waits for run.py to answer with the time the reference work took (see
speed.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import speed
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def import_program():
    """Import kordered from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import kordered
        import kordered.cli  # noqa: F401  (items call it through sys.modules)
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import kordered from {src}: {exc}")
    if not Path(kordered.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: kordered was imported from {kordered.__file__}, not {src}")
    return kordered


class Outputs:
    """What the items returned, kept for checking after the timed phase.

    Items repeat across rounds with the same output, so only the first
    copy of each distinct (item, exit code, stdout) is kept and a repeat
    is dropped once compared: the memory this takes is bounded by the
    workload's distinct items, not by how many rounds a run completes.
    """

    def __init__(self) -> None:
        self.items: dict[str, object] = {}  # key -> item
        self.distinct: dict[tuple, tuple] = {}  # (key, exit code, stdout), kept once
        self.runs: list[tuple] = []  # the kept (key, exit code, stdout) of every item run

    def add(self, item, rc, out: str) -> None:
        self.items.setdefault(item.key, item)
        memo = (item.key, rc, out)
        self.runs.append(self.distinct.setdefault(memo, memo))

    def problems(self, ref: dict, seed: int) -> list[str]:
        """Problems found in the outputs, one line per failed item run."""
        found = {(key, rc, out): _problem(self.items[key], rc, out, ref, seed)
                 for key, rc, out in self.distinct}
        return [f"{memo[0]}: {found[memo]}" for memo in self.runs if found[memo]]


def _problem(item, rc, out: str, ref: dict, seed: int) -> str | None:
    if rc is None:
        return out
    try:
        problem = item.check(rc, out)
        expected = ref.get(item.key)
        if problem is None and item.verdict and expected and (
                seed == workloads.DEFAULT_SEED or item.seed_free):
            if json.loads(json.dumps([rc, item.verdict(out)])) != expected:
                problem = "verdict differs from the recorded reference"
    except Exception as exc:  # unreadable output is a failed item
        problem = f"output check raised {type(exc).__name__}: {exc}"
    return problem


def run_item(item, outputs: Outputs, call=None) -> float:
    """Run one item, keep its output, return its latency."""
    t0 = time.perf_counter()
    try:
        rc, out = call(item) if call else item.call()
    except Exception as exc:  # the item failed; keep measuring the rest
        rc, out = None, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    outputs.add(item, rc, out)
    return latency


def calibrate() -> tuple[float, float]:
    """Have run.py run the reference work (see speed.py) and wait until it
    has; return how long this process waited and the reference time."""
    t0 = time.perf_counter()
    print("calibrate", flush=True)
    reply = sys.stdin.readline()
    if not reply:
        sys.exit("perfbench: the runner went away")
    return time.perf_counter() - t0, float(reply)


def run_for(rounds, seconds: float, outputs: Outputs):
    """Items round after round until they have taken ``seconds`` at
    reference speed, with the reference work run before every item.

    Counting time at reference speed, and stopping after any item rather
    than at the end of a round, keeps the number of items, and so which
    items the latency tail falls on, from moving in steps of a round with
    the machine's speed.  Returns the wall time without the waits for the
    reference work, the latencies, and the number of rounds run (the last
    one possibly in part).
    """
    items = [item for r in rounds for item in r]
    latencies, reference = [], []
    paused = elapsed = 0.0  # elapsed: item time so far at reference speed
    start = time.perf_counter()
    while elapsed < seconds:
        waited, ref = calibrate()
        paused += waited
        reference.append(ref)
        latencies.append(run_item(items[len(latencies) % len(items)], outputs))
        # the reference times before the item stand in for those after it
        elapsed += speed.at_reference_speed(
            latencies[-1:], reference[-2 * speed.REFERENCE_WINDOW - 1:],
            2 * speed.REFERENCE_WINDOW)[0]
    wall = time.perf_counter() - start - paused
    return wall, latencies, round(len(latencies) / len(rounds[0]), 2)


def run_paired(items, tracer: Tracer, outputs: Outputs):
    """Each item untraced and traced, alternating which goes first so that
    machine drift and first-call effects fall on both sides evenly.
    Returns the untraced and the traced latencies, and the traced stdouts."""
    plain, traced, traced_out = [], [], []

    def call(item):
        rc, out = tracer.run_item(item.key, item.call)
        traced_out.append((item, rc, out))
        return rc, out

    for i, item in enumerate(items):
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                plain.append(run_item(item, outputs))
                continue
            tracer.install()
            try:
                traced.append(run_item(item, outputs, call))
            finally:
                tracer.uninstall()
    return plain, traced, traced_out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="run every round once and print the verdicts as the reference")
    args = ap.parse_args()

    kd = import_program()
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref = {} if args.record else reference.get(args.workload, {})
    rounds = workloads.WORKLOADS[args.workload](
        args.seed, kd, ref, workloads.ROUNDS[args.workload])
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result: dict = {}
    outputs = Outputs()
    if args.record:
        for items in rounds:
            for item in items:
                run_item(item, outputs)
    elif args.trace == 0:
        wall, latencies, count = run_for(rounds, args.seconds, outputs)
        result.update(wall_s=wall, rounds=count, latencies=latencies)
    else:
        count = workloads.TRACE_ROUNDS[args.workload]
        tracer = Tracer()
        plain, traced, traced_out = run_paired(
            [item for r in range(count) for item in rounds[r % len(rounds)]], tracer, outputs)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead"] = (sum(traced) / sum(plain), "ratio")
        metrics["trace.item_wall_s"] = (sum(plain), "s")
        rows = [row for item, rc, out in traced_out if item.part == "extremal-solve" and rc == 0
                for row in workloads.extremal_rows(out)]
        certified = sum(row.get("certified") == "True" for row in rows)
        metrics["extremal.retries"] = (sum(int(row.get("retries", 0)) for row in rows), "count")
        metrics["extremal.certified_ratio"] = (certified / len(rows) if rows else 0.0, "ratio")
        result.update(rounds=count, layer_metrics=metrics, absent=tracer.absent)
        if args.spans:
            tracer.write_spans(args.spans)
    # read before the checks below, which re-solve instances of their own
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["attempted"] = len(outputs.runs)
    result["problems"] = outputs.problems(ref, args.seed)
    if args.record and not result["problems"]:
        result["reference"] = {
            key: [rc, outputs.items[key].verdict(out)]
            for key, rc, out in outputs.distinct if outputs.items[key].verdict}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
