"""Experiment orchestration: sharpness sweeps, threshold scans, extremal
demos, the Ore-type degree-sum check, and deterministic report objects.

Reports are reproducible byte for byte from (seed, parameters): timing
columns are opt-in and excluded by default so that identical runs emit
identical files.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Graph, GraphError
from .extremal import ExtremalParams, solve_extremal_dense, solve_extremal_sparse
from .generators import (
    ConstructionError,
    build_dense_bipartite_instance,
    build_sharpness_graph,
    build_sparse_cut_instance,
    min_degree_threshold,
    random_graph_min_degree,
    sharpness_min_degree,
)
from .hamilton import EXACT_SOLVER_LIMIT, NotHamiltonianError, find_s_cycle, is_k_ordered


@dataclass
class ExperimentReport:
    """Rows plus aggregates for one experiment run.

    Every row is reproducible from (seed, parameters); aggregates carry a
    ``rows`` count equal to the number of rows.
    """

    kind: str
    parameters: dict
    seed: int | None
    rows: list[dict] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)

    def finalize(self) -> "ExperimentReport":
        self.aggregates["rows"] = len(self.rows)
        return self

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "parameters": self.parameters,
            "seed": self.seed,
            "rows": self.rows,
            "aggregates": self.aggregates,
        }
        return json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        if self.rows:
            cols = list(self.rows[0].keys())
            writer = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
            writer.writeheader()
            for row in self.rows:
                writer.writerow({c: row.get(c, "") for c in cols})
        return buf.getvalue()


def ore_condition(g: Graph, k: int) -> bool:
    """Degree-sum test: deg(u) + deg(v) >= n + 2k - 6 for every nonadjacent
    pair; vacuously true on complete graphs.  Defined for k >= 3."""
    if k < 3:
        raise GraphError("the degree-sum condition needs k >= 3")
    n = g.n
    degs = [row.bit_count() for row in g.adj]
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v) and degs[u] + degs[v] < n + 2 * k - 6:
                return False
    return True


def sharpness_sweep(
    n_values,
    k_values=None,
    *,
    timing: bool = False,
) -> ExperimentReport:
    """For each (n, k), rebuild the tight construction, check its minimum
    degree against the closed form, and confirm the witness sequence has
    no Hamiltonian S-cycle (exhaustive search).  Any deviation is a
    property violation recorded in the aggregates."""
    n_values = list(n_values)
    if n_values and max(n_values) > EXACT_SOLVER_LIMIT:
        raise ConstructionError(
            f"sweep needs exhaustive verdicts: n capped at {EXACT_SOLVER_LIMIT}"
        )
    report = ExperimentReport(
        "sharpness",
        {"n_values": n_values, "k_values": list(k_values) if k_values else None},
        seed=None,
    )
    jobs = []
    for n in n_values:
        ks = list(k_values) if k_values else list(range(2, n // 2 + 1))
        jobs.extend((n, k) for k in ks if 2 <= k <= n // 2)

    def run(job):
        n, k = job
        t0 = time.perf_counter()
        sg = build_sharpness_graph(n, k)
        expected = sharpness_min_degree(n, k)
        cyc = find_s_cycle(sg.graph, sg.witness)
        row = {
            "n": n,
            "k": k,
            "delta": sg.min_degree,
            "expected_delta": expected,
            "delta_ok": sg.min_degree == expected,
            "witness": " ".join(map(str, sg.witness)),
            "outcome": "none" if cyc is None else "cycle",
            "ok": sg.min_degree == expected and cyc is None,
        }
        if timing:
            row["wall_ms"] = round(1000 * (time.perf_counter() - t0), 3)
        return row

    report.rows = [run(job) for job in jobs]
    report.aggregates["violations"] = sum(1 for r in report.rows if not r["ok"])
    return report.finalize()


def scan_instance_seed(seed: int, offset: int, trial: int) -> int:
    """Instance seed for one scan row, exposed so rows can be re-checked."""
    return seed * 7919 + 1_000_003 * offset + trial


def threshold_scan(
    n: int,
    k: int,
    trials: int,
    seed: int = 0,
    *,
    offsets=(-1, 0),
    timing: bool = False,
) -> ExperimentReport:
    """Sample random graphs at minimum degrees around the k-ordered
    threshold and report the fraction that are k-ordered.

    These are small-n empirics: the threshold's guarantee is asymptotic,
    so fractions below 1 at the bound are expected at desk scale and the
    report is labelled accordingly.
    """
    if n > EXACT_SOLVER_LIMIT:
        raise ConstructionError(
            f"scan needs exact per-instance verdicts: n capped at {EXACT_SOLVER_LIMIT}"
        )
    bound = min_degree_threshold(n, k)
    report = ExperimentReport(
        "scan",
        {"n": n, "k": k, "trials": trials, "offsets": list(offsets), "bound": bound},
        seed=seed,
    )
    report.aggregates["note"] = (
        "small-n empirical scan; the degree threshold only guarantees "
        "k-orderedness asymptotically"
    )
    jobs = []
    for off in offsets:
        delta = bound + off
        if 0 <= delta < n:
            jobs.extend((off, delta, t) for t in range(trials))

    def run(job):
        off, delta, t = job
        t0 = time.perf_counter()
        g = random_graph_min_degree(n, delta, seed=scan_instance_seed(seed, off, t))
        try:
            ordered, witness = is_k_ordered(g, k)
        except NotHamiltonianError:
            ordered, witness = False, None
        row = {
            "offset": off,
            "delta": delta,
            "trial": t,
            "ordered": ordered,
            "witness": " ".join(map(str, witness)) if witness else "",
            "ore": ore_condition(g, k) if k >= 3 else "",
        }
        if timing:
            row["wall_ms"] = round(1000 * (time.perf_counter() - t0), 3)
        return row

    report.rows = [run(job) for job in jobs]
    fractions = []
    for off in sorted(offsets):
        rows = [r for r in report.rows if r["offset"] == off]
        if rows:
            frac = round(sum(r["ordered"] for r in rows) / len(rows), 6)
            report.aggregates[f"fraction_at_{off:+d}"] = frac
            fractions.append((off, frac))
    # the fraction should rise with the degree floor; dips are sampling noise
    dips = [
        f"{a:+d}->{b:+d}"
        for (a, fa), (b, fb) in zip(fractions, fractions[1:])
        if fb < fa
    ]
    report.aggregates["monotone_dips"] = dips
    return report.finalize()


def extremal_demo(
    kind: str,
    n: int,
    k: int,
    seed: int = 0,
    trials: int = 1,
    *,
    timing: bool = False,
) -> ExperimentReport:
    """Generate extremal instances, draw a random valid sequence, run the
    matching solver and report certificate status plus the stage trace."""
    if kind not in ("sparse", "dense"):
        raise GraphError("kind must be 'sparse' or 'dense'")
    if k < 2:
        raise GraphError(f"k={k}: an ordered sequence needs at least 2 vertices")
    if k > n:
        raise ConstructionError(f"cannot draw k={k} distinct vertices from n={n}")
    # at desk scale k/n is not negligible, so the cut needs a wider alpha
    # than the asymptotic default
    p = ExtremalParams(alpha=Fraction(3, 10))
    report = ExperimentReport(
        "extremal", {"instance": kind, "n": n, "k": k, "trials": trials}, seed=seed
    )

    def run(t):
        rng = random.Random(seed * 1_000_003 + t)
        inst_seed = seed * 1009 + t
        if kind == "sparse":
            inst = build_sparse_cut_instance(n, k, seed=inst_seed)
        else:
            # imbalance parity must match n; alternate the feasible values
            r = (t % 2) * 2 if n % 2 == 0 else 1
            inst = build_dense_bipartite_instance(n, k, imbalance=r, seed=inst_seed)
        seq = tuple(rng.sample(range(inst.graph.n), k))
        solver = solve_extremal_sparse if kind == "sparse" else solve_extremal_dense
        row = {
            "trial": t,
            "n": inst.graph.n,
            "k": k,
            "delta": inst.min_degree,
            "cross_density": str(inst.cross_density),
            "sequence": " ".join(map(str, seq)),
        }
        t0 = time.perf_counter()
        sol = solver(inst.graph, inst.side_a, inst.side_b, seq, p, seed=inst_seed)
        row["certified"] = sol.trace["certified"]
        if kind == "sparse":
            row["bridges"] = sol.trace["bridges"]
            row["transitions"] = sol.trace["transitions"]
        else:
            row["imbalance"] = sol.trace["imbalance"]
            row["matching"] = sol.trace["matching_size"]
        row["retries"] = sol.trace.get("retries", 0)
        if timing:
            row["wall_ms"] = round(1000 * (time.perf_counter() - t0), 3)
        return row

    report.rows = [run(t) for t in range(trials)]
    report.aggregates["certified"] = sum(1 for r in report.rows if r["certified"])
    return report.finalize()
