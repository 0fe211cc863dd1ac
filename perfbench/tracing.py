"""Spans around the public functions of each kordered module, from outside.

Wrapping replaces a function on the module that defines it and on every
kordered module that imported the name, so calls between modules are
seen too.  Only names that exist are wrapped; a function a later change
removes simply stops being reported.  Spans (name, start, end, parent,
item) stay in memory and are written out when the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs wrapped in a span; "Graph.__post_init__" is a method
SPANNED = (
    ("hamilton", "is_k_ordered"),
    ("hamilton", "find_s_cycle"),
    ("hamilton", "find_hamiltonian_path"),
    ("hamilton", "verify_s_cycle"),
    ("generators", "random_graph_min_degree"),
    ("generators", "build_sharpness_graph"),
    ("generators", "build_sparse_cut_instance"),
    ("generators", "build_dense_bipartite_instance"),
    ("matching", "maximum_matching"),
    ("matching", "bipartite_matching_and_cover"),
    ("extremal", "solve_extremal_sparse"),
    ("extremal", "solve_extremal_dense"),
    ("extremal", "cleanup_sparse"),
    ("extremal", "cleanup_dense"),
    ("extremal", "connect_pairs"),
    ("core", "Graph.__post_init__"),
    ("core", "induced_subgraph"),
    ("regularity", "is_epsilon_regular"),
    ("regularity", "is_super_regular"),
    ("graph6", "decode_graph6"),
    ("graph6", "encode_graph6"),
    ("experiments", "extremal_demo"),
    ("experiments", "ore_condition"),
    ("cli", "main"),
)
# generators whose yields are counted; their time stays with the consumer
COUNTED = (("hamilton", "enumerate_hamiltonian_cycles", "hamilton.cycles_enumerated"),)

LAYERS = ("hamilton", "generators", "matching", "extremal", "core", "regularity",
          "graph6", "experiments", "cli", "bench")

ITEM_SPAN = "bench.item"


def _canonical_orders(n: int, k: int) -> int:
    """Sequences is_k_ordered examines: k-subsets times dihedral classes."""
    return math.comb(n, k) * max(1, math.factorial(k - 1) // 2) if k >= 4 else 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item: str | None = None
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.item])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(spans[idx], result, args, kwargs)
            return result

        return wrapper

    def run_item(self, key: str, call):
        self.item = key
        try:
            return self._wrap(ITEM_SPAN, call)()
        finally:
            self.item = None

    # -- per-function hooks: counts read from a call's arguments and result

    def _after_find_s_cycle(self, span, result, args, kwargs):
        g = args[0]
        if result is None:
            self.counts["hamilton.find_s_cycle.none"] += 1
        if g.n >= 3:
            self.counts["hamilton.dp_masks"] += 1 << g.n

    def _after_find_hamiltonian_path(self, span, result, args, kwargs):
        g = args[0]
        self.counts[f"hamilton.find_hamiltonian_path.{result.method}"] += 1
        if result.method != "rotation" and result.authoritative and g.n > 2:
            self.counts["hamilton.dp_masks"] += 1 << g.n

    def _after_is_k_ordered(self, span, result, args, kwargs):
        k = args[1] if len(args) > 1 else kwargs["k"]
        self.counts["hamilton.canonical_orders"] += _canonical_orders(args[0].n, k)

    def _after_is_epsilon_regular(self, span, result, args, kwargs):
        span[0] = f"regularity.is_epsilon_regular.{result.mode}"

    def _after_decode_graph6(self, span, result, args, kwargs):
        self.counts["graph6.bytes"] += len(args[0])

    def _after_encode_graph6(self, span, result, args, kwargs):
        self.counts["graph6.bytes"] += len(result)

    # -- installing --------------------------------------------------

    def _replace_everywhere(self, orig, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "kordered" and not modname.startswith("kordered."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        self.absent = []
        for module, qualname in SPANNED:
            mod = sys.modules.get(f"kordered.{module}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, attr, None) if owner is not None else None
            if not callable(orig):
                self.absent.append(f"{module}.{qualname}")
                continue
            after = getattr(self, f"_after_{attr}", None)
            wrapper = self._wrap(f"{module}.{qualname}", orig, after)
            if owner_name:
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
            else:
                self._replace_everywhere(orig, wrapper)
        for module, name, counter in COUNTED:
            orig = getattr(sys.modules.get(f"kordered.{module}"), name, None)
            if not callable(orig):
                self.absent.append(f"{module}.{name}")
                continue
            self._replace_everywhere(orig, self._counting(orig, counter))

    def _counting(self, gen, counter: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for value in gen(*args, **kwargs):
                counts[counter] += 1
                yield value

        return wrapper

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], Counter]:
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[idx]
            calls[name] += 1
        return self_s, calls

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, item]) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        self_s, calls = self.self_times()
        counts = self.counts
        total = sum(self_s.values())
        out: dict[str, tuple[float, str]] = {}

        def fn(name: str, with_calls: bool = True) -> None:
            if name in self.absent:
                return
            if with_calls:
                out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")

        fn("hamilton.is_k_ordered")
        if "hamilton.enumerate_hamiltonian_cycles" not in self.absent:
            cycles = counts["hamilton.cycles_enumerated"]
            out["hamilton.cycles_enumerated"] = (cycles, "count")
            out["hamilton.orders_per_cycle"] = (
                counts["hamilton.canonical_orders"] / cycles if cycles else 0.0, "ratio")
        fn("hamilton.find_s_cycle")
        if "hamilton.find_s_cycle" not in self.absent:
            out["hamilton.find_s_cycle.none"] = (counts["hamilton.find_s_cycle.none"], "count")
        out["hamilton.dp_masks"] = (counts["hamilton.dp_masks"], "count")
        fn("hamilton.find_hamiltonian_path")
        if "hamilton.find_hamiltonian_path" not in self.absent:
            for method in ("exact", "rotation"):
                name = f"hamilton.find_hamiltonian_path.{method}"
                out[name] = (counts[name], "count")
        fn("hamilton.verify_s_cycle")
        for name in ("random_graph_min_degree", "build_sharpness_graph",
                     "build_sparse_cut_instance", "build_dense_bipartite_instance"):
            fn(f"generators.{name}")
        fn("matching.maximum_matching")
        fn("matching.bipartite_matching_and_cover")
        for name in ("solve_extremal_sparse", "solve_extremal_dense", "cleanup_sparse",
                     "cleanup_dense", "connect_pairs"):
            fn(f"extremal.{name}")
        if "core.Graph.__post_init__" not in self.absent:
            out["core.graph_builds"] = (calls["core.Graph.__post_init__"], "count")
            out["core.graph_build_s"] = (self_s["core.Graph.__post_init__"], "s")
        fn("core.induced_subgraph")
        if "regularity.is_epsilon_regular" not in self.absent:
            for mode in ("exact", "sampled"):
                fn(f"regularity.is_epsilon_regular.{mode}")
        fn("regularity.is_super_regular")
        fn("graph6.decode_graph6")
        fn("graph6.encode_graph6")
        out["graph6.bytes"] = (counts["graph6.bytes"], "bytes")
        fn("experiments.extremal_demo", with_calls=False)
        fn("experiments.ore_condition", with_calls=False)
        fn("cli.main", with_calls=False)
        for layer in LAYERS:
            share = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
            out[f"{layer}.self_share"] = (share / total if total else 0.0, "ratio")
        out["trace.self_sum_s"] = (total, "s")
        return out
