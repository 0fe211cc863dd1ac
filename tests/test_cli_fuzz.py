"""Fuzz the command line: no argv or graph input may raise past ``main``.

Every subcommand gets flag values drawn from valid ints, 0, negatives,
reversed ranges and garbage, and graph files that are valid, truncated
or non-ASCII graph6 or edge lists.  ``main`` must return 0, 2 or 3, or
argparse must exit with status 2; any other exception is a traceback a
user would see.  Sizes stay small so that each call is quick.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kordered import Graph, encode_graph6, format_edge_list  # noqa: E402
from kordered.cli import main  # noqa: E402

GARBAGE = st.sampled_from(["", "x", "1.5", "0x10", "--", "3-", "٣", "\xe9"])


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def values(lo, hi):
    """A small int, zero, a negative, or garbage, as argv text."""
    return st.one_of(ints(lo, hi), st.just("0"), ints(-5, -1), GARBAGE)


@st.composite
def ranges(draw, lo, hi):
    """'a-b' either way round, a comma list, one value, or garbage."""
    a, b = draw(st.integers(lo, hi)), draw(st.integers(lo, hi))
    return draw(st.sampled_from([f"{a}-{b}", f"{a},{b}", f"{a}", f"{a}-x"]) | GARBAGE)


def int_lists(hi):
    return st.lists(st.integers(-2, hi), max_size=5).map(
        lambda xs: ",".join(map(str, xs))
    ) | GARBAGE


@st.composite
def graph_bytes(draw):
    """A small graph as graph6 or an edge list, whole, cut short or
    corrupted with non-ASCII bytes."""
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])
    text = draw(st.sampled_from([encode_graph6(g) + "\n", format_edge_list(g)]))
    data = text.encode("ascii")
    how = draw(st.sampled_from(["whole", "truncated", "non-ascii", "edited"]))
    if how == "truncated":
        data = data[: draw(st.integers(0, max(len(data) - 1, 0)))]
    elif how == "non-ascii":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3\xa9", b"\x80"])) + data[at:]
    elif how == "edited":
        extra = draw(st.sampled_from(
            [b"-3\n", b"3\n0 5\n", b"2\n0 0\n", b"# c\n", b"?\n", b"~~\n"]
        ))
        data = draw(st.sampled_from([extra, data + extra]))
    return data


def argvs(graph):
    fmt = st.sampled_from([[], ["--format=json"], ["--format=xml"]])
    seed = st.sampled_from([[], ["--seed=3"], ["--seed=-1"], ["--seed=x"]])
    sharpness = st.tuples(ranges(-2, 12), st.one_of(st.none(), ranges(-2, 6)), fmt).map(
        lambda t: ["sharpness", f"--n={t[0]}", *([f"--k={t[1]}"] if t[1] else []), *t[2]]
    )
    scan = st.tuples(values(3, 9), values(2, 5), values(1, 2), int_lists(2), seed, fmt).map(
        lambda t: ["scan", f"--n={t[0]}", f"--k={t[1]}", f"--trials={t[2]}",
                   f"--offsets={t[3]}", *t[4], *t[5]]
    )
    ordered = values(2, 9).map(lambda k: ["ordered", graph, f"--k={k}"])
    scycle = int_lists(9).map(lambda s: ["scycle", graph, f"--seq={s}"])
    extremal = st.tuples(
        st.sampled_from(["sparse", "dense", "huge"]), values(4, 40), values(2, 5),
        values(1, 2), seed,
    ).map(lambda t: ["extremal", f"--kind={t[0]}", f"--n={t[1]}", f"--k={t[2]}",
                     f"--trials={t[3]}", *t[4]])
    eps = st.sampled_from(["0.3", "1/3", "0", "-1", "2", "abc", "nan", "inf", "1/0"])
    regular = st.tuples(
        int_lists(9), int_lists(9), eps, st.one_of(st.none(), eps),
        st.sampled_from(["auto", "exact", "sampled", "fast"]), values(1, 30), seed,
    ).map(lambda t: ["regular", graph, f"--a={t[0]}", f"--b={t[1]}", f"--eps={t[2]}",
                     *([f"--delta={t[3]}"] if t[3] else []), f"--mode={t[4]}",
                     f"--samples={t[5]}", *t[6]])
    gen = st.tuples(
        st.sampled_from(["sharpness", "sparse", "dense", "random", "huge"]), values(2, 40),
        values(2, 5), values(0, 8), st.one_of(st.none(), values(0, 6)), values(0, 3), seed,
    ).map(lambda t: ["gen", f"--kind={t[0]}", f"--n={t[1]}", f"--k={t[2]}", f"--delta={t[3]}",
                     *([f"--cut-degree={t[4]}"] if t[4] else []), f"--imbalance={t[5]}",
                     "--sidecar=-", *t[6]])
    return st.one_of(sharpness, scan, ordered, scycle, extremal, regular, gen)


def test_no_argv_or_input_raises_past_main(tmp_path):
    graph = tmp_path / "graph.txt"
    missing = str(tmp_path / "missing.g6")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(graph_bytes(), st.data())
    def run(data, draw):
        graph.write_bytes(data)
        argv = draw.draw(argvs(draw.draw(st.sampled_from([str(graph), missing]))))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                return
        assert code in (0, 2, 3), argv
        assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())

    run()
