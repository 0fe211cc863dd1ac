"""The workloads: the inputs each draws from its seed, the call each item
makes, and the check each item's output must pass.

A workload is a list of rounds and a round is a list of items.  Every
round has the same mix of item kinds, so a run that stops after whole
rounds measures the same mix whatever its length.  Rounds are generated
once during set-up; a run longer than ``rounds`` reuses them in order.

Each workload joins two parts, each part one family of CLI calls: the
exact engines (korder-scan, scycle-dp) and the constructive solvers with
the pair checks (extremal-solve, pair-checks).  Two long workloads rather
than four short ones, because the machine's speed drifts by 20-50% over
tens of seconds and even times scaled to reference speed (see speed.py)
steady only over many items, within the time the benchmark may take.

Item keys ("<round>:<kind>") name the same input slot on every seed, which
is how the recorded reference is looked up.  The reference holds verdicts
only (see ``Item.verdict``): printed cycles and paths are checked by
``checks`` instead, so a change that finds another valid cycle still
passes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks

DEFAULT_SEED = 0


@dataclass
class Item:
    key: str
    call: Callable[[], tuple[int, str]]
    # returns a description of what is wrong with (exit code, stdout), or None
    check: Callable[[int, str], str | None]
    # the verdict fields of a checked stdout, compared with the reference;
    # None for items whose output is checked in full without a reference
    verdict: Callable[[str], dict] | None = None
    # True when the input does not depend on the seed, so the reference
    # recorded for the default seed applies to every seed
    seed_free: bool = False
    part: str = ""


def cli_call(cli, argv: list[str], stdin: str | None = None) -> Callable[[], tuple[int, str]]:
    """An in-process ``kordered`` invocation with stdin fed and stdout kept.

    ``cli.main`` is looked up on every call so that the traced run sees
    its wrapper.
    """

    def call() -> tuple[int, str]:
        out = io.StringIO()
        saved = sys.stdin
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:  # argparse rejects its input this way
                    rc = exc.code if isinstance(exc.code, int) else 2
        finally:
            sys.stdin = saved
        return rc, out.getvalue()

    return call


def _seq_text(seq) -> str:
    return ",".join(map(str, seq))


def _json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _fields(*names: str) -> Callable[[str], dict]:
    """Verdict: the named fields of the JSON report."""
    return lambda out: {name: _json(out)[name] for name in names}


# -- korder-scan ---------------------------------------------------------
#
# `ordered --k K` at n=10.  The random graphs come from a fixed pool drawn
# with random_graph_min_degree, KORDER_POOL graphs per stratum, and every
# round holds the whole pool; the seed and the round draw the vertex
# labelling of each pool graph.  Relabelling keeps the verdict, so the
# reference verdict holds for every seed, but moves the enumeration order
# and the witness.  The cost of one is_k_ordered call varies ~10x between
# random graphs of one stratum, so a fixed pool keeps runs with different
# seeds comparable.  Labellings of one graph still differ in cost, by up to
# 2x (1.5-2.9 s at k=5 on the next graph each stratum would draw), and such
# items set the latency tail by the labellings a seed happens to draw; so
# the pool holds one graph per stratum, none of them that slow.

KORDER_N = 10
KORDER_STRATA = ((4, -1), (4, 0), (5, -1), (5, 0))
KORDER_POOL = 1
# sharpness (n, k).  (11, 5) is left out: one call takes ~13 s.  (11, 4) is
# left out too: at ~1.9 s, twice the next slowest item and once per round,
# it put the latency tail (the 11th slowest item of a run) on the edge
# between it and the next items, so the tail jumped with the number of
# rounds a run completed.
KORDER_SHARPNESS = ((10, 4), (10, 5))


def build_korder_scan(seed: int, kd, ref: dict, rounds: int) -> list[list[Item]]:
    cli = sys.modules["kordered.cli"]
    pool = {
        (k, off, j): list(kd.random_graph_min_degree(
            KORDER_N, kd.min_degree_threshold(KORDER_N, k) + off,
            seed=7919 * j + 101 * k + off).adj)
        for k, off in KORDER_STRATA for j in range(KORDER_POOL)
    }
    out = []
    for r in range(rounds):
        rng = random.Random(seed * 1_000_003 + r)
        items = []
        for (k, off, j), rows in pool.items():
            perm = list(range(KORDER_N))
            rng.shuffle(perm)
            slot = f"random-k{k}{off:+d}-g{j}"
            verdict = ref.get(f"0:{slot}")  # same graph up to labelling in every round
            expected = verdict[1]["ordered"] if verdict else None
            items.append(_ordered_item(cli, f"{r}:{slot}", checks.relabel(rows, perm), k,
                                       expected))
        for n, k in KORDER_SHARPNESS:
            rows = list(kd.build_sharpness_graph(n, k).graph.adj)
            item = _ordered_item(cli, f"{r}:sharpness-n{n}-k{k}", rows, k, False)
            item.seed_free = True
            items.append(item)
        out.append(items)
    return out


def _ordered_item(cli, key: str, rows: list[int], k: int, expected: bool | None) -> Item:
    n = len(rows)

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        got = _json(out)
        if got.get("k") != k or got.get("hamiltonian") is not True:
            return f"unexpected report {got}"
        if expected is not None and got["ordered"] != expected:
            return f"verdict {got['ordered']}, reference {expected}"
        w = got["witness"]
        if got["ordered"]:
            return None if w is None else "witness printed for an ordered graph"
        if not (isinstance(w, list) and len(w) == k and len(set(w)) == k
                and all(0 <= v < n for v in w)):
            return f"malformed witness {w}"
        if w[0] != min(w) or (k > 2 and w[1] > w[-1]):
            return f"witness {w} not in dihedral canonical form"
        if checks.has_s_cycle(rows, w):
            return f"witness {w} has an S-cycle"
        return None

    return Item(key, cli_call(cli, ["ordered", "-", "--k", str(k)],
                              checks.encode_graph6(n, rows)), check,
                _fields("ordered", "witness"))


# -- scycle-dp -----------------------------------------------------------
#
# `scycle --seq` at n=19-21 plus the exact path DP.  Dense graphs meet the
# degree-sum bound n + 2k - 6 on non-adjacent pairs, which makes them
# k-ordered Hamiltonian (Ng and Schultz), so "none" on them is wrong and
# every printed cycle is re-checked.  The sequence length is fixed per
# slot because it gates the DP and sets the cost.

SCYCLE_DENSE = ((19, 3), (19, 5), (20, 4), (20, 5), (21, 6))
SCYCLE_SHARPNESS = ((19, 4), (20, 5), (21, 6))
SCYCLE_FORCED_NONE_N = 20
SCYCLE_PATH_N = (18, 19)


def build_scycle_dp(seed: int, kd, ref: dict, rounds: int) -> list[list[Item]]:
    cli = sys.modules["kordered.cli"]
    out = []
    for r in range(rounds):
        rng = random.Random(seed * 1_000_003 + r)
        items = []
        for n, length in SCYCLE_DENSE:
            delta = math.ceil((n + 2 * length - 6) / 2)
            g = kd.random_graph_min_degree(n, delta, seed=rng.randrange(1 << 30))
            seq = rng.sample(range(n), length)
            items.append(_scycle_item(cli, f"{r}:dense-n{n}-len{length}", list(g.adj), seq,
                                      expect_cycle=True))
        for n, k in SCYCLE_SHARPNESS:
            sg = kd.build_sharpness_graph(n, k)
            item = _scycle_item(cli, f"{r}:sharpness-n{n}-k{k}", list(sg.graph.adj),
                                list(sg.witness), expect_cycle=False)
            item.seed_free = True
            items.append(item)

        n = SCYCLE_FORCED_NONE_N
        rows = list(kd.random_graph_min_degree(n, n // 2 + 2, seed=rng.randrange(1 << 30)).adj)
        a, x, v, b = rng.sample(range(n), 4)
        for u in range(n):
            rows[u] &= ~(1 << v)
        rows[v] = 1 << a | 1 << b
        rows[a] |= 1 << v
        rows[b] |= 1 << v
        items.append(_scycle_item(cli, f"{r}:forced-none-n{n}", rows, [a, x, v, b],
                                  expect_cycle=False))

        for n in SCYCLE_PATH_N:
            g = kd.random_graph_min_degree(n, (n + 2) // 2, seed=rng.randrange(1 << 30))
            x, y = rng.sample(range(n), 2)
            items.append(_path_item(kd, f"{r}:exact-path-n{n}", g, x, y))
        out.append(items)
    return out


def _scycle_item(cli, key: str, rows: list[int], seq: list[int], expect_cycle: bool) -> Item:
    n = len(rows)
    # the reason a cycle must, or cannot, exist, checked on the input itself
    if expect_cycle and checks.degree_sum_floor(rows) < n + 2 * len(seq) - 6:
        raise RuntimeError(f"{key}: input below the degree-sum bound")
    if not expect_cycle and ":forced-none" in key and not checks.forced_none(rows, seq):
        raise RuntimeError(f"{key}: input does not force a none")

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        got = _json(out)
        if got.get("sequence") != seq:
            return f"sequence echoed as {got.get('sequence')}"
        cycle = got.get("cycle")
        if not expect_cycle:
            return None if cycle is None else "cycle printed where none exists"
        if cycle is None:
            return "none printed on a k-ordered Hamiltonian graph"
        return checks.cycle_problem(rows, cycle, seq)

    return Item(key, cli_call(cli, ["scycle", "-", "--seq", _seq_text(seq)],
                              checks.encode_graph6(n, rows)), check,
                lambda out: {"found": _json(out)["cycle"] is not None})


def _path_item(kd, key: str, g, x: int, y: int) -> Item:
    rows = list(g.adj)
    # deg(u) + deg(v) >= n + 1 on non-adjacent pairs: Hamiltonian-connected (Ore)
    if checks.degree_sum_floor(rows) < g.n + 1:
        raise RuntimeError(f"{key}: input is not Hamiltonian-connected by degree sums")

    def call() -> tuple[int, str]:
        res = kd.find_hamiltonian_path(g, x, y, restarts=0)
        path = list(res.path.order) if res.path is not None else None
        return 0, json.dumps({"method": res.method, "path": path})

    def check(rc: int, out: str) -> str | None:
        path = _json(out)["path"]
        if path is None:
            return "no path reported in a Hamiltonian-connected graph"
        return checks.path_problem(rows, path, x, y)

    return Item(key, call, check)


# -- extremal-solve ------------------------------------------------------
#
# One `extremal` trial per item.  The CLI prints no cycle, so the first
# round's sparse and first dense instance are also rebuilt and solved
# through the public API and those cycles are re-checked.  The CLI's trial
# 0 draws its instance with seed * 1009, and its dense trial 0 at odd n
# uses imbalance 1.

# two dense trials per sparse one, so that the median item is a dense trial
# rather than a value falling between the two kinds' latencies
EXTREMAL_CASES = (("sparse", 400, 4), ("dense", 401, 3), ("dense", 401, 3))


def build_extremal_solve(seed: int, kd, ref: dict, rounds: int) -> list[list[Item]]:
    cli = sys.modules["kordered.cli"]
    out = []
    for r in range(rounds):
        rng = random.Random(seed * 1_000_003 + r)
        items = []
        for i, (kind, n, k) in enumerate(EXTREMAL_CASES):
            s = rng.randrange(1_000_000)
            argv = ["extremal", "--kind", kind, "--n", str(n), "--k", str(k), "--seed", str(s)]
            items.append(Item(f"{r}:{kind}-n{n}-k{k}-{i}", cli_call(cli, argv),
                              _extremal_check(kd, kind, n, k, s, resolve=r == 0 and i < 2),
                              lambda out: {"certified": [row["certified"]
                                                         for row in extremal_rows(out)]}))
        out.append(items)
    return out


def extremal_rows(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def _extremal_check(kd, kind: str, n: int, k: int, seed: int, resolve: bool):
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        rows = extremal_rows(out)
        if len(rows) != 1:
            return f"{len(rows)} report rows"
        row = rows[0]
        if (row["n"], row["k"], row["certified"]) != (str(n), str(k), "True"):
            return f"unexpected row {row}"
        return _resolve_problem(kd, kind, n, k, seed, row) if resolve else None

    return check


def _resolve_problem(kd, kind: str, n: int, k: int, seed: int, row: dict) -> str | None:
    if kind == "sparse":
        inst = kd.build_sparse_cut_instance(n, k, seed=seed * 1009)
        solver = kd.solve_extremal_sparse
    else:
        inst = kd.build_dense_bipartite_instance(n, k, imbalance=1, seed=seed * 1009)
        solver = kd.solve_extremal_dense
    if (str(inst.min_degree), str(inst.cross_density)) != (row["delta"], row["cross_density"]):
        return "report row does not match the regenerated instance"
    seq = [int(v) for v in row["sequence"].split()]
    params = kd.ExtremalParams(alpha=Fraction(3, 10))
    sol = solver(inst.graph, inst.side_a, inst.side_b, seq, params, seed=seed * 1009)
    return checks.cycle_problem(list(inst.graph.adj), list(sol.cycle.order), seq)


# -- pair-checks ---------------------------------------------------------
#
# `regular` on random bipartite pairs (edge probability 1/2, sides A then
# B): exact mode at sides 12-14 with a regular and an irregular eps,
# super-regularity passing (delta 0.1: a side-13 vertex fails only at
# degree <= 1) and failing on a planted low-degree vertex,
# sampled mode at side 40, and a graph6 round trip at n=800.

PAIR_CASES = (
    # (kind, side, eps, delta, mode)
    ("exact-regular", 12, "0.45", None, "exact"),
    ("exact-regular", 13, "0.45", None, "exact"),
    ("exact-regular", 14, "0.45", None, "exact"),
    ("exact-regular", 13, "0.4", None, "exact"),
    ("exact-irregular", 14, "0.3", None, "exact"),
    ("super-regular", 13, "0.45", "0.1", "exact"),
    ("super-low-vertex", 12, "0.45", "0.3", "exact"),
    ("sampled", 40, "0.2", None, "sampled"),
)
ROUNDTRIP_N = 800
SPOT_CHECKS = 40


def _random_pair(rng: random.Random, m: int) -> list[int]:
    rows = [0] * (2 * m)
    for a in range(m):
        for b in range(m, 2 * m):
            if rng.random() < 0.5:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return rows


def build_pair_checks(seed: int, kd, ref: dict, rounds: int) -> list[list[Item]]:
    cli = sys.modules["kordered.cli"]
    rng = random.Random(seed)
    big = [0] * ROUNDTRIP_N
    for u in range(ROUNDTRIP_N):
        for v in range(u + 1, ROUNDTRIP_N):
            if rng.random() < 0.5:
                big[u] |= 1 << v
                big[v] |= 1 << u
    big_text = checks.encode_graph6(ROUNDTRIP_N, big)

    out = []
    for r in range(rounds):
        rng = random.Random(seed * 1_000_003 + r)
        items = []
        for kind, m, eps, delta, mode in PAIR_CASES:
            rows = _random_pair(rng, m)
            if kind == "super-low-vertex":
                low = rng.randrange(m)
                for b in range(m, 2 * m):
                    rows[b] &= ~(1 << low)
                keep = rng.sample(range(m, 2 * m), 2)
                rows[low] = 1 << keep[0] | 1 << keep[1]
                for b in keep:
                    rows[b] |= 1 << low
            argv = ["regular", "-", "--a", _seq_text(range(m)),
                    "--b", _seq_text(range(m, 2 * m)), "--eps", eps, "--mode", mode]
            if delta is not None:
                argv += ["--delta", delta]
            if mode == "sampled":
                argv += ["--seed", str(rng.randrange(1_000_000))]
            check = _regular_check(rows, m, Fraction(eps), delta and Fraction(delta), mode,
                                   random.Random(rng.randrange(1 << 30)))
            items.append(Item(f"{r}:{kind}-side{m}-eps{eps}",
                              cli_call(cli, argv, checks.encode_graph6(2 * m, rows)), check,
                              _fields("regular", "witness", "failing_vertex")))
        items.append(_roundtrip_item(kd, f"{r}:graph6-roundtrip-n{ROUNDTRIP_N}", big_text))
        out.append(items)
    return out


def _regular_check(rows, m, eps, delta, mode, spot_rng):
    a_side, b_side = list(range(m)), list(range(m, 2 * m))
    d0 = checks.pair_density(rows, a_side, b_side)
    min_size = math.floor(eps * m) + 1

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        got = _json(out)
        fv = got["failing_vertex"]
        if fv is not None:
            other = b_side if fv < m else a_side
            deg = sum(1 for u in other if rows[fv] >> u & 1)
            ok = delta is not None and not got["regular"] and deg <= delta * m
            return None if ok else f"failing vertex {fv} has degree {deg}"
        if got["mode"] != mode:
            return f"mode {got['mode']}, asked for {mode}"
        w = got["witness"]
        if not got["regular"]:
            if w is None:
                return "irregular verdict without a witness"
            xs, ys = w["X"], w["Y"]
            if not (set(xs) <= set(a_side) and set(ys) <= set(b_side)
                    and len(xs) >= min_size and len(ys) >= min_size):
                return f"witness sets out of bounds: {w}"
            dev = abs(checks.pair_density(rows, xs, ys) - d0)
            if dev < eps or str(dev) != w["deviation"]:
                return f"witness deviation {w['deviation']}, recomputed {dev}"
            return None
        if w is not None:
            return "regular verdict with a witness"
        if mode == "sampled":
            return None  # sampled mode only reports that its samples found no witness
        # exact mode claims regularity: random X, each with its densest and
        # sparsest Y of every admissible size, may refute it
        for _ in range(SPOT_CHECKS):
            xs = spot_rng.sample(a_side, spot_rng.randint(min_size, m))
            by_degree = sorted(b_side, key=lambda b: checks.pair_density(rows, xs, [b]))
            for size in range(min_size, m + 1):
                for ys in (by_degree[:size], by_degree[-size:]):
                    if abs(checks.pair_density(rows, xs, ys) - d0) >= eps:
                        return f"regular verdict refuted by X={sorted(xs)} Y={sorted(ys)}"
        return None

    return check


def _roundtrip_item(kd, key: str, text: str) -> Item:
    def call() -> tuple[int, str]:
        return 0, kd.encode_graph6(kd.decode_graph6(text))

    def check(rc: int, out: str) -> str | None:
        return None if out == text else "graph6 round trip changed the text"

    return Item(key, call, check)


PARTS = {
    "korder-scan": build_korder_scan,
    "scycle-dp": build_scycle_dp,
    "extremal-solve": build_extremal_solve,
    "pair-checks": build_pair_checks,
}


def _joined(*parts: str):
    def build(seed: int, kd, ref: dict, rounds: int) -> list[list[Item]]:
        built = [PARTS[p](seed, kd, ref, rounds) for p in parts]
        for part, part_rounds in zip(parts, built):
            for items in part_rounds:
                for item in items:
                    item.part = part
        out = [sum(items, []) for items in zip(*built)]
        keys = [item.key for items in out for item in items]
        if len(set(keys)) != len(keys):
            raise RuntimeError("item keys collide between parts")
        return out

    return build


WORKLOADS = {
    "hamilton-exact": _joined("korder-scan", "scycle-dp"),
    "extremal-regular": _joined("extremal-solve", "pair-checks"),
}

# distinct rounds generated per run, and rounds a traced run measures
ROUNDS = {"hamilton-exact": 6, "extremal-regular": 16}
TRACE_ROUNDS = {"hamilton-exact": 1, "extremal-regular": 3}
