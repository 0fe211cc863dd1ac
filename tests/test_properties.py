"""Property tests of the exact engines against brute-force oracles."""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kordered import (  # noqa: E402
    Graph,
    NotHamiltonianError,
    bipartite_matching_and_cover,
    decode_graph6,
    encode_graph6,
    find_hamiltonian_path,
    find_s_cycle,
    is_epsilon_regular,
    is_k_ordered,
    maximum_matching,
    ore_condition,
    verify_s_cycle,
)
from oracles import (  # noqa: E402
    ham_path_exists_naive,
    is_k_ordered_by_enumeration,
    regular_pair_naive,
    s_cycle_exists_naive,
)

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


@st.composite
def dense_graphs(draw, min_n=3, max_n=8):
    """A complete graph with at most n edges taken out."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    gone = set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    return Graph.from_edges(n, [e for e in pairs if e not in gone])


@SETTINGS
@given(st.data())
def test_k_ordered_verdict_and_witness_match_cycle_enumeration(data):
    # most of graphs() is not Hamiltonian, so dense graphs are drawn too
    g = data.draw(st.one_of(graphs(min_n=4), dense_graphs(min_n=4)))
    k = data.draw(st.integers(4, min(6, g.n)))
    expected = is_k_ordered_by_enumeration(g, k)
    if expected is None:
        with pytest.raises(NotHamiltonianError):
            is_k_ordered(g, k)
    else:
        assert is_k_ordered(g, k) == expected


@SETTINGS
@given(st.data())
def test_ore_condition_implies_k_ordered(data):
    # Ng and Schultz (J. Graph Theory 1997): deg(u) + deg(v) >= n + 2k - 6
    # for every nonadjacent pair, with 3 <= k <= n, makes g k-ordered
    # Hamiltonian.  The condition only weakens as k falls, and a k-ordered
    # graph is (k-1)-ordered, so the largest k that meets it is checked.
    g = data.draw(dense_graphs())
    ks = [k for k in range(3, g.n + 1) if ore_condition(g, k)]
    if ks:
        assert is_k_ordered(g, max(ks))[0]


@st.composite
def pairs(draw, max_side):
    """A graph with two disjoint, interleaved vertex sets and an eps."""
    na = draw(st.integers(1, max_side))
    nb = draw(st.integers(1, max_side))
    g = draw(graphs(min_n=na + nb, max_n=na + nb + 2))
    order = draw(st.permutations(range(g.n)))
    eps = Fraction(draw(st.integers(1, 19)), 20)
    return g, sorted(order[:na]), sorted(order[na:na + nb]), eps


def cross_density(g, xs, ys) -> Fraction:
    return Fraction(sum(g.has_edge(x, y) for x in xs for y in ys), len(xs) * len(ys))


@SETTINGS
@given(pairs(max_side=5))
def test_exact_regularity_matches_quantifier_enumeration(pair):
    g, a, b, eps = pair
    assert is_epsilon_regular(g, a, b, eps, mode="exact").regular == regular_pair_naive(
        g, a, b, eps
    )[0]


@SETTINGS
@given(pairs(max_side=9))
def test_exact_irregular_witness_has_least_sizes_and_deviates(pair):
    g, a, b, eps = pair
    verdict = is_epsilon_regular(g, a, b, eps, mode="exact")
    if verdict.regular:
        assert verdict.witness is None
        return
    xs, ys, dev = verdict.witness
    assert len(xs) == math.floor(eps * len(a)) + 1 and set(xs) <= set(a)
    assert len(ys) == math.floor(eps * len(b)) + 1 and set(ys) <= set(b)
    recomputed = abs(cross_density(g, xs, ys) - cross_density(g, a, b))
    assert recomputed == dev and recomputed >= eps


@SETTINGS
@given(st.integers(0, 70), st.data())
def test_graph6_roundtrip_and_networkx_codec_agree(n, data):
    nx = pytest.importorskip("networkx")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = data.draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if keep >> i & 1])
    text = encode_graph6(g)
    assert decode_graph6(text) == g
    assert encode_graph6(decode_graph6(text)) == text
    theirs = nx.from_graph6_bytes(text.encode())
    assert theirs.number_of_nodes() == n
    assert sorted(map(sorted, theirs.edges())) == sorted(map(list, g.edges()))
    assert nx.to_graph6_bytes(theirs, header=False) == text.encode() + b"\n"


def _nx_graph(nx, n, edges):
    theirs = nx.Graph()
    theirs.add_nodes_from(range(n))
    theirs.add_edges_from(edges)
    return theirs


@SETTINGS
@given(graphs(min_n=0, max_n=12))
def test_maximum_matching_size_matches_networkx(g):
    nx = pytest.importorskip("networkx")
    ours = maximum_matching(g)
    assert all(g.has_edge(u, v) for u, v in ours.edges)
    theirs = nx.max_weight_matching(_nx_graph(nx, g.n, g.edges()), maxcardinality=True)
    assert len(ours) == len(theirs)


@SETTINGS
@given(st.data())
def test_konig_cover_has_the_matching_size(data):
    nx = pytest.importorskip("networkx")
    g = data.draw(graphs(min_n=2, max_n=12))
    split = data.draw(st.integers(1, g.n - 1))
    a, b = range(split), range(split, g.n)
    matching, cover = bipartite_matching_and_cover(g, a, b)
    cross = [(u, v) for u, v in g.edges() if u < split <= v]
    theirs = nx.max_weight_matching(_nx_graph(nx, g.n, cross), maxcardinality=True)
    assert len(matching) == len(cover) == len(theirs)
    assert all(u in cover or v in cover for u, v in cross)
