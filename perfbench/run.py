"""kordered benchmark runner (standard library only).

Measure one workload:

    python3 perfbench/run.py --workload hamilton-exact --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics, with times
scaled to a reference speed of the machine (see speed.py); with
``--trace 1`` it runs a fixed number of rounds, every item once untraced
and once traced, and reports the per-layer metrics.  Each run prints a
table, then an ``env`` line, and as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  It
exits 1 when any item failed, 2 when the workload could not be run at
all.  Every run is also appended, with its environment, to ``--out``.

Compare two sets of runs, one row per workload and metric:

    python3 perfbench/run.py --compare before.jsonl after.jsonl

Re-record the reference verdicts of every workload for the default seed
(only when a change is meant to alter them):

    python3 perfbench/run.py --record-reference
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import at_reference_speed, reference_work
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 9  # processes set up per run; setup_s is their median
SETUP_REFERENCE = 5  # runs of the reference work before each set-up
DEADLINE_S = 170  # a run must end within 180 s
TAIL_BEYOND = 10  # item_tail_ms: highest percentile with this many items above it


class RunError(Exception):
    pass


# -- child processes -------------------------------------------------------


class Worker:
    """One worker process, from its start to its exit."""

    def __init__(self, extra: list[str], deadline: float) -> None:
        self.deadline = deadline
        self._buf = b""
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(WORKER), *extra], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        line = self._readline()
        # seconds from process start to the worker's ``ready`` line
        self.setup_s = time.perf_counter() - t0
        if line != "ready":
            self._stop()
            raise RunError(f"worker did not get ready (exit code {self.proc.returncode})")

    def _readline(self) -> str | None:
        """The worker's next line; None at its end or when the deadline passes."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            ready, _, _ = select.select([fd], [], [], max(0.0, self.deadline - time.monotonic()))
            chunk = os.read(fd, 1 << 16) if ready else b""
            if not chunk:
                return None
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line.decode().strip()

    def _stop(self) -> None:
        try:
            self.proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()

    def finish(self) -> tuple[str, list[float]]:
        """Read the worker's output to its end, running the reference work
        each time it asks; return its last line and the reference work's
        times."""
        last, reference = "", []
        while (line := self._readline()) is not None:
            if line == "calibrate":
                reference.append(reference_work())
                self.proc.stdin.write(f"{reference[-1]!r}\n".encode())
                self.proc.stdin.flush()
            elif line:
                last = line
        if time.monotonic() >= self.deadline:
            self.proc.kill()
            self.proc.communicate()
            raise RunError("worker ran past the deadline and was stopped")
        self._stop()
        if self.proc.returncode != 0:
            raise RunError(f"worker exited with code {self.proc.returncode}")
        return last, reference


def _worker_result(extra: list[str], deadline: float) -> tuple[float, dict, list[float]]:
    worker = Worker(extra, deadline)
    last, reference = worker.finish()
    return worker.setup_s, json.loads(last), reference


# -- one run -----------------------------------------------------------------


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # else git would search the directories above
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = head.stdout.strip() if head.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "seed": seed,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND items above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(workload: str, seed: int, seconds: int, trace: int, spans: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    # the worker, its set-ups and the reference work all run on one CPU, so
    # that the reference work gauges the CPU the items ran on; they never
    # run at the same time
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if trace:
        _, res, _ = _worker_result(base + ["--trace", "1", "--spans", str(spans)], deadline)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in
                   sorted(res["layer_metrics"].items())}
        detail = {"rounds": res["rounds"], "absent": res["absent"], "spans": str(spans)}
    else:
        setups, setup_refs = [], []

        def set_up(extra: list[str]) -> tuple[str, list[float]]:
            setup_refs.append(statistics.median(
                reference_work() for _ in range(SETUP_REFERENCE)))
            worker = Worker(base + extra, deadline)
            setups.append(worker.setup_s)
            return worker.finish()

        # half of the set-ups before the timed phase and half after it: the
        # machine's speed shifts over tens of seconds, and sampling both ends
        # of the run keeps one such shift from setting the median
        for _ in range(SETUP_SAMPLES // 2):
            set_up(["--setup-only"])
        last, reference = set_up(["--seconds", str(seconds)])
        res = json.loads(last)
        for _ in range(SETUP_SAMPLES // 2):
            set_up(["--setup-only"])
        raw_lat = res["latencies"]
        lat = at_reference_speed(raw_lat, reference)
        # the timed phase's wall time, scaled as its items were
        wall = res["wall_s"] * sum(lat) / sum(raw_lat)
        setup_s = statistics.median(at_reference_speed(setups, setup_refs, 0))
        tail_s, tail_pct = tail(lat)
        raw = {
            "items_per_s": len(raw_lat) / res["wall_s"],
            "item_p50_ms": 1000 * statistics.median(raw_lat),
            "item_tail_ms": 1000 * tail(raw_lat)[0],
            "setup_s": statistics.median(setups),
        }
        metrics = {
            "items_per_s": {"value": len(lat) / wall, "unit": "1/s"},
            "item_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
            "item_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        detail = {"rounds": res["rounds"], "items": len(lat), "tail_percentile": tail_pct,
                  "speed": sum(lat) / sum(raw_lat), "setup_speed": setup_s / raw["setup_s"],
                  "raw": raw, "latencies_s": raw_lat, "reference_s": reference,
                  "setup_samples": setups, "setup_reference_s": setup_refs}
    failed = len(res["problems"])
    detail.update(attempted=res["attempted"], failed=failed,
                  fail_rate=failed / res["attempted"], problems=res["problems"][:20])
    return {"metrics": metrics, "detail": detail}


def report(workload: str, seed: int, trace: int, run: dict, env: dict) -> None:
    d = run["detail"]
    print(f"workload {workload}  seed {seed}  trace {trace}  rounds {d['rounds']}  "
          f"attempted {d['attempted']}  failed {d['failed']}  fail_rate {d['fail_rate']:.4f}")
    for problem in d["problems"]:
        print(f"  FAILED {problem}")
    if not trace:
        print(f"  machine speed {d['speed']:.4f} in the timed phase, {d['setup_speed']:.4f} "
              f"around set-up (1 = reference speed); times below are at reference speed, "
              f"as measured in brackets")
    for name, m in run["metrics"].items():
        note = f"  [{d['raw'][name]:.6g}]" if name in d.get("raw", {}) else ""
        if name == "item_tail_ms":
            note += f"  (p{d['tail_percentile']:.1f} of {d['items']} items)"
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{note}")
    if trace and d["absent"]:
        print(f"  not in this program, not reported: {', '.join(d['absent'])}")
    print("env " + json.dumps(env, sort_keys=True))


def run_one(args) -> int:
    env = environment(args.seed)
    out = Path(args.out) if args.out else HERE / "results" / "runs.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    spans = out.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        run = measure(args.workload, args.seed, args.seconds, args.trace, spans)
    except RunError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, args.trace, run, env)
    d = run["detail"]
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": env, "metrics": {k: v["value"] for k, v in run["metrics"].items()},
              "units": {k: v["unit"] for k, v in run["metrics"].items()}, "detail": d}
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": d["failed"] == 0, "attempted": d["attempted"],
                      "failed": d["failed"], "metrics": run["metrics"]}))
    return 0 if d["failed"] == 0 else 1


# -- compare -----------------------------------------------------------------


def _load(path: str) -> dict:
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            for name, value in rec["metrics"].items():
                key = (rec["workload"], name)
                runs.setdefault(key, ([], rec["units"][name]))[0].append(value)
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: str, path_b: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a, b = _load(path_a), _load(path_b)
    regressed = 0
    print(f"{'workload':<15} {'metric':<44} {'unit':<6} "
          f"{'A median [q1, q3]':<34} {'B median [q1, q3]':<34} {'change':>8}  verdict")
    for key in sorted(set(a) & set(b)):
        (va, unit), (vb, _) = a[key], b[key]
        qa, qb = _quartiles(va), _quartiles(vb)
        change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
        spec_m = bounds.get(key[1])
        if spec_m is None:
            verdict = "no bound"
        else:
            worse = change if spec_m["better"] == "lower" else -change
            verdict = "WORSE than bound" if worse > spec_m["bound"] else "within bound"
            regressed += worse > spec_m["bound"]
        side = "{:.5g} [{:.5g}, {:.5g}] n={}"
        print(f"{key[0]:<15} {key[1]:<44} {unit:<6} "
              f"{side.format(qa[1], qa[0], qa[2], len(va)):<34} "
              f"{side.format(qb[1], qb[0], qb[2], len(vb)):<34} {change:>+8.1%}  {verdict}")
    for key in sorted(set(a) ^ set(b)):
        print(f"{key[0]:<15} {key[1]:<44} only in {'A' if key in a else 'B'}")
    return 1 if regressed else 0


# -- reference -----------------------------------------------------------------


def record_reference() -> int:
    reference = {}
    for workload in WORKLOADS:
        deadline = time.monotonic() + 1800
        try:
            _, res, _ = _worker_result(["--workload", workload, "--seed", str(DEFAULT_SEED),
                                     "--record"], deadline)
        except RunError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 2
        if res["problems"]:
            print(f"perfbench: {workload}: not recorded, outputs fail their checks:",
                  *res["problems"], sep="\n  ", file=sys.stderr)
            return 1
        reference[workload] = res["reference"]
        print(f"{workload}: {len(res['reference'])} verdicts")
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="JSON-lines file each run is appended to "
                                  "(default perfbench/results/runs.jsonl)")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="compare two files of runs written by --out")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.record_reference:
        return record_reference()
    if not args.workload:
        ap.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
