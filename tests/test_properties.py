"""Property tests of the exact kernel against brute-force oracles."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kordered import Graph, find_hamiltonian_path, find_s_cycle, verify_s_cycle  # noqa: E402
from oracles import ham_path_exists_naive, s_cycle_exists_naive  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def graphs(draw, min_n=3, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


@SETTINGS
@given(st.data())
def test_s_cycle_kernel_matches_cycle_enumeration(data):
    g = data.draw(graphs())
    k = data.draw(st.integers(2, min(6, g.n)))
    seq = tuple(data.draw(st.permutations(range(g.n)))[:k])
    cycle = find_s_cycle(g, seq)
    assert (cycle is not None) == s_cycle_exists_naive(g, seq)
    if cycle is not None:
        assert verify_s_cycle(g, seq, cycle)


@SETTINGS
@given(st.data())
def test_path_kernel_matches_path_search(data):
    g = data.draw(graphs())
    x, y = data.draw(st.permutations(range(g.n)))[:2]
    res = find_hamiltonian_path(g, x, y, restarts=0)
    assert res.authoritative
    assert (res.path is not None) == ham_path_exists_naive(g, x, y)
    if res.path is not None:
        order = res.path.order
        assert order[0] == x and order[-1] == y and sorted(order) == list(range(g.n))
        assert all(g.has_edge(u, v) for u, v in zip(order, order[1:]))
