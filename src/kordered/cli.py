"""Command-line front end.

Subcommands: sharpness, scan, ordered, scycle, extremal, regular, gen.
Graphs travel as graph6 (stdin/stdout or file paths); reports are CSV or
JSON.  Exit codes: 0 success, 2 property violation, solver failure or
malformed input (a one-line message, no traceback), 3 infeasible
parameters or running out of memory.  ``main`` is the one place that
maps errors to exit codes.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import Graph, GraphError, degree_profile
from .extremal import HypothesisViolation, StageError
from .generators import (
    ConstructionError,
    build_dense_bipartite_instance,
    build_sharpness_graph,
    build_sparse_cut_instance,
    random_graph_min_degree,
)
from .graph6 import Graph6Error, decode_graph6, encode_graph6, parse_edge_list
from .hamilton import NotHamiltonianError, find_s_cycle, is_k_ordered, verify_s_cycle
from .regularity import is_epsilon_regular, is_super_regular
from . import experiments

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_INFEASIBLE = 3


def _read_graph(path: str) -> Graph:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    stripped = text.strip()
    if not stripped:
        raise Graph6Error("empty graph input")
    first = stripped.splitlines()[0].strip()
    if first.startswith("#") or first.isdigit():
        # the graph6 alphabet has no digits, so a numeric header line
        # (or a leading comment) unambiguously marks the edge-list format
        return parse_edge_list(stripped)
    return decode_graph6(first)


def _emit_report(report, fmt: str, out) -> None:
    out.write(report.to_json() if fmt == "json" else report.to_csv())


class UsageError(ValueError):
    """A command-line value that does not parse."""


def _ints(tokens: list[str], text: str) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise UsageError(f"expected integers, got {text!r}") from None


def _parse_ints(text: str) -> list[int]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise UsageError(f"expected integers, got {text!r}")
    return _ints(tokens, text)


def _parse_range(text: str) -> list[int]:
    """Accept '8-16' or a comma/space separated list."""
    if "-" in text and "," not in text:
        lo, hi = _ints(text.split("-", 1), text)
        if lo > hi:
            raise UsageError(f"range {text!r} runs backwards")
        return list(range(lo, hi + 1))
    return _parse_ints(text)


def _count(value: int, flag: str) -> int:
    """A count flag's value; below 1 it would run nothing and report that
    nothing failed."""
    if value < 1:
        raise UsageError(f"{flag} must be at least 1, got {value}")
    return value


def cmd_sharpness(args) -> int:
    ks = None if args.k is None else _parse_range(args.k)
    report = experiments.sharpness_sweep(_parse_range(args.n), ks, timing=args.timing)
    _emit_report(report, args.format, sys.stdout)
    return EXIT_OK if report.aggregates["violations"] == 0 else EXIT_VIOLATION


def cmd_scan(args) -> int:
    report = experiments.threshold_scan(
        args.n,
        args.k,
        _count(args.trials, "--trials"),
        seed=args.seed,
        offsets=tuple(_ints(args.offsets.split(","), args.offsets)),
        timing=args.timing,
    )
    _emit_report(report, args.format, sys.stdout)
    return EXIT_OK


def cmd_ordered(args) -> int:
    g = _read_graph(args.graph)
    try:
        ordered, witness = is_k_ordered(g, args.k)
    except NotHamiltonianError:
        print(json.dumps({"k": args.k, "ordered": False, "hamiltonian": False}))
        return EXIT_VIOLATION
    payload = {
        "k": args.k,
        "ordered": ordered,
        "hamiltonian": True,
        "witness": list(witness) if witness else None,
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_scycle(args) -> int:
    seq = tuple(_parse_ints(args.seq))
    g = _read_graph(args.graph)
    cycle = find_s_cycle(g, seq)
    if cycle is None:
        print(json.dumps({"sequence": list(seq), "cycle": None}, sort_keys=True))
        return EXIT_OK
    assert verify_s_cycle(g, seq, cycle)
    print(json.dumps({"sequence": list(seq), "cycle": list(cycle.order)}, sort_keys=True))
    return EXIT_OK


def cmd_extremal(args) -> int:
    report = experiments.extremal_demo(
        args.kind,
        args.n,
        args.k,
        seed=args.seed,
        trials=_count(args.trials, "--trials"),
        timing=args.timing,
    )
    _emit_report(report, args.format, sys.stdout)
    certified = report.aggregates["certified"]
    return EXIT_OK if certified == len(report.rows) else EXIT_VIOLATION


def cmd_regular(args) -> int:
    _count(args.samples, "--samples")
    a = _parse_ints(args.a)
    b = _parse_ints(args.b)
    g = _read_graph(args.graph)
    if args.delta is not None:
        verdict = is_super_regular(
            g, a, b, args.eps, args.delta, mode=args.mode, samples=args.samples, seed=args.seed
        )
    else:
        verdict = is_epsilon_regular(
            g, a, b, args.eps, mode=args.mode, samples=args.samples, seed=args.seed
        )
    payload = {
        "regular": verdict.regular,
        "mode": verdict.mode,
        "witness": (
            {
                "X": list(verdict.witness[0]),
                "Y": list(verdict.witness[1]),
                "deviation": str(verdict.witness[2]),
            }
            if verdict.witness
            else None
        ),
        "failing_vertex": verdict.failing_vertex,
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind == "sharpness":
        sg = build_sharpness_graph(args.n, args.k)
        g = sg.graph
        sidecar = {
            "kind": "sharpness",
            "n": args.n,
            "k": args.k,
            "delta": sg.min_degree,
            "witness": list(sg.witness),
            "u_side": list(sg.u_side),
            "w_side": list(sg.w_side),
        }
    elif args.kind in ("sparse", "dense"):
        if args.kind == "sparse":
            inst = build_sparse_cut_instance(args.n, args.k, args.cut_degree, seed=args.seed)
        else:
            inst = build_dense_bipartite_instance(
                args.n, args.k, imbalance=args.imbalance, seed=args.seed
            )
        g = inst.graph
        sidecar = dict(inst.params)
        sidecar.update(
            delta=inst.min_degree,
            cross_density=str(inst.cross_density),
            side_a=list(inst.side_a),
            side_b=list(inst.side_b),
        )
    else:
        g = random_graph_min_degree(args.n, args.delta, seed=args.seed)
        sidecar = {
            "kind": "random",
            "n": args.n,
            "target_delta": args.delta,
            "seed": args.seed,
            "delta": degree_profile(g).min_degree,
        }
    line = encode_graph6(g)
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(line + "\n")
    else:
        print(line)
    if args.sidecar:
        text = json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
        if args.sidecar == "-":
            sys.stdout.write(text)
        else:
            with open(args.sidecar, "w", encoding="ascii") as fh:
                fh.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kordered",
        description="Decide, construct and certify k-ordered Hamiltonian cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--timing", action="store_true",
                       help="include wall-time columns (breaks byte-for-byte determinism)")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sharpness", help="sweep the tight construction over n and k")
    p.add_argument("--n", required=True, help="range like 8-16 or list like 8,10,12")
    p.add_argument("--k", default=None, help="optional k range; default 2..floor(n/2)")
    common(p, seed=False)
    p.set_defaults(func=cmd_sharpness)

    p = sub.add_parser("scan", help="k-ordered fraction around the degree threshold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--offsets", default="-1,0", help="comma list of deltas from the bound")
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("ordered", help="decide k-orderedness of a graph")
    p.add_argument("graph", help="graph6/edge-list file path, or - for stdin")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_ordered)

    p = sub.add_parser("scycle", help="find a Hamiltonian cycle meeting a sequence in order")
    p.add_argument("graph")
    p.add_argument("--seq", required=True, help="sequence like 0,2,4")
    p.set_defaults(func=cmd_scycle)

    p = sub.add_parser("extremal", help="generate and solve extremal instances")
    p.add_argument("--kind", choices=("sparse", "dense"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("regular", help="epsilon-regularity of a bipartite pair")
    p.add_argument("graph")
    p.add_argument("--a", required=True, help="side A vertices, e.g. 0,1,2")
    p.add_argument("--b", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", default=None, help="also require the super-regular degree floor")
    p.add_argument("--mode", choices=("auto", "exact", "sampled"), default="auto")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_regular)

    p = sub.add_parser("gen", help="emit generator output as graph6 plus a JSON sidecar")
    p.add_argument("--kind", choices=("sharpness", "sparse", "dense", "random"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--delta", type=int, default=0, help="target minimum degree (random kind)")
    p.add_argument("--cut-degree", type=int, default=None)
    p.add_argument("--imbalance", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.add_argument("--sidecar", default=None)
    p.set_defaults(func=cmd_gen)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # one parser per process: building it costs ~1 ms, and in-process
    # callers run main many times; parsing leaves the parser unchanged
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        for name, value in vars(args).items():
            # no flag takes a list, but argparse before Python 3.12 parses
            # "--flag=--" as an empty one
            if isinstance(value, list):
                raise UsageError(f"--{name.replace('_', '-')} needs a value")
        return args.func(args)
    except (ConstructionError, HypothesisViolation) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except StageError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (Graph6Error, GraphError, UsageError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except MemoryError:
        print("infeasible: out of memory", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
