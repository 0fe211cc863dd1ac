import random
from itertools import combinations

import pytest

from kordered import (
    Graph,
    GraphError,
    bipartite_matching_and_cover,
    maximum_matching,
)
from oracles import brute_matching_number, petersen, random_graph


def test_even_cycle():
    assert len(maximum_matching(Graph.cycle(6))) == 3


def test_empty_graph():
    assert len(maximum_matching(Graph.empty(7))) == 0


def test_petersen():
    g = petersen()
    m = maximum_matching(g)
    assert len(m) == 5 == brute_matching_number(g)
    assert all(g.has_edge(u, v) for u, v in m.edges)


def test_all_tiny_graphs_match_brute_force():
    # every graph on 5 vertices
    pairs = list(combinations(range(5), 2))
    for bitsel in range(1 << len(pairs)):
        g = Graph.from_edges(5, [e for i, e in enumerate(pairs) if bitsel >> i & 1])
        assert len(maximum_matching(g)) == brute_matching_number(g)


def test_random_graphs_match_brute_force():
    rng = random.Random(11)
    for _ in range(120):
        g = random_graph(rng, rng.randint(2, 12), rng.uniform(0.1, 0.95))
        m = maximum_matching(g)
        assert all(g.has_edge(u, v) for u, v in m.edges)
        assert len(m) == brute_matching_number(g)


def test_matching_deterministic():
    rng = random.Random(12)
    g = random_graph(rng, 10, 0.5)
    assert maximum_matching(g).edges == maximum_matching(g).edges


def test_complete_bipartite_cover_is_small_side():
    g = Graph.complete_bipartite(3, 5)
    m, cover = bipartite_matching_and_cover(g, range(3), range(3, 8))
    assert len(m) == 3
    assert cover == frozenset({0, 1, 2})


def test_perfect_matching_bipartite():
    g = Graph.from_edges(8, [(i, 4 + i) for i in range(4)])
    m, cover = bipartite_matching_and_cover(g, range(4), range(4, 8))
    assert len(m) == 4 == len(cover)


def test_konig_equality_and_cover_on_randoms():
    rng = random.Random(13)
    for _ in range(80):
        na, nb = rng.randint(1, 7), rng.randint(1, 7)
        edges = [
            (u, na + v)
            for u in range(na)
            for v in range(nb)
            if rng.random() < rng.uniform(0.2, 0.9)
        ]
        g = Graph.from_edges(na + nb, edges)
        a, b = list(range(na)), list(range(na, na + nb))
        m, cover = bipartite_matching_and_cover(g, a, b)
        assert len(m) == len(cover)
        assert len(m) == brute_matching_number(g)  # bipartite nu
        for u, v in edges:
            assert u in cover or v in cover
        for u, v in m.edges:
            assert g.has_edge(u, v)
            assert (u in a) != (v in a)


def test_bipartite_ignores_internal_edges():
    # a triangle inside side A must not leak into the matching
    g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)])
    m, cover = bipartite_matching_and_cover(g, [0, 1, 2], [3, 4])
    assert len(m) == 2
    for u, v in m.edges:
        assert v in (3, 4)


def test_matching_disjointness_enforced():
    from kordered.matching import Matching

    with pytest.raises(GraphError):
        Matching(4, ((0, 1), (1, 2)))
