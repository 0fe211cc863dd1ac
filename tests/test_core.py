import random
from fractions import Fraction

import pytest

from kordered import (
    Graph,
    GraphError,
    build_sharpness_graph,
    degree_profile,
    density,
    edges_between,
    induced_subgraph,
)
from kordered.core import draw_shuffle, sampler
from oracles import (
    draw_below,
    graph_error_per_arc,
    induced_subgraph_per_bit,
    naive_edges_between,
    random_graph,
)


def test_degree_profile_complete():
    prof = degree_profile(Graph.complete(5))
    assert prof.degrees == (4, 4, 4, 4, 4)
    assert prof.min_degree == prof.max_degree == 4


def test_degree_profile_cycle():
    prof = degree_profile(Graph.cycle(6))
    assert prof.degrees == (2,) * 6
    assert prof.min_degree == prof.max_degree == 2


def test_degree_profile_sharpness_graph():
    sg = build_sharpness_graph(10, 4)
    assert degree_profile(sg.graph).min_degree == 5


def test_edges_between_complete():
    assert edges_between(Graph.complete(5), [0, 1], [2, 3, 4]) == 6


def test_edges_between_empty_graph():
    assert edges_between(Graph.empty(8), [0, 1, 2], [5, 6]) == 0


def test_edges_between_cycle_hand_count():
    # on the cycle 0-1-2-3-4-5 only the edge 1-2 crosses {0,1} / {2,3}
    assert edges_between(Graph.cycle(6), [0, 1], [2, 3]) == 1


def test_edges_between_requires_disjoint():
    with pytest.raises(GraphError):
        edges_between(Graph.complete(4), [0, 1], [1, 2])


def test_vertex_sets_outside_the_graph_raise():
    # a negative index is refused before it is shifted, a huge one before
    # its bit is allocated
    g = Graph.complete(4)
    for bad in ([-1], [0, 4], [1 << 20], -1):
        with pytest.raises(GraphError, match="outside 0..n-1"):
            edges_between(g, bad, [2])


def test_edges_between_symmetric_and_matches_naive():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        verts = list(range(n))
        rng.shuffle(verts)
        cut = rng.randint(1, n - 1)
        a, b = verts[:cut], verts[cut:]
        got = edges_between(g, a, b)
        assert got == edges_between(g, b, a)
        assert got == naive_edges_between(g, a, b)


def test_density_complete_bipartite_is_one():
    g = Graph.complete_bipartite(4, 5)
    assert density(g, range(4), range(4, 9)) == 1


def test_density_perfect_matching():
    g = Graph.from_edges(12, [(i, 6 + i) for i in range(6)])
    assert density(g, range(6), range(6, 12)) == Fraction(1, 6)


def test_density_sharpness_graph_direct_count():
    # frozen from the direct edge-count oracle: U x {w1,w2} plus W x {u1}
    # overlap on u1-w1, u1-w2 gives 10 + 5 - 2 = 13 cross edges
    sg = build_sharpness_graph(10, 4)
    assert edges_between(sg.graph, sg.u_side, sg.w_side) == 13
    assert density(sg.graph, sg.u_side, sg.w_side) == Fraction(13, 25)


def test_density_empty_side_raises():
    with pytest.raises(GraphError):
        density(Graph.complete(4), [], [1, 2])


def test_density_bounds_and_symmetry():
    rng = random.Random(202)
    for _ in range(50):
        n = rng.randint(2, 14)
        g = random_graph(rng, n, rng.uniform(0, 1))
        verts = list(range(n))
        rng.shuffle(verts)
        cut = rng.randint(1, n - 1)
        a, b = verts[:cut], verts[cut:]
        d = density(g, a, b)
        assert isinstance(d, Fraction)
        assert 0 <= d <= 1
        assert d == density(g, b, a)


def test_induced_subgraph_complete():
    sub, idx = induced_subgraph(Graph.complete(5), [1, 3, 4])
    assert sub == Graph.complete(3)
    assert idx == (1, 3, 4)


def test_induced_subgraph_cycle_gives_path():
    sub, _ = induced_subgraph(Graph.cycle(6), [0, 1, 2])
    assert sub == Graph.path(3)


def test_induced_subgraph_identity():
    g = Graph.cycle(7)
    sub, idx = induced_subgraph(g, range(7))
    assert sub == g
    assert idx == tuple(range(7))


def test_induced_subgraph_empty_raises():
    with pytest.raises(GraphError):
        induced_subgraph(Graph.complete(3), [])


def test_induced_subgraph_matches_per_bit_remap():
    rng = random.Random(404)
    for i in range(150):
        n = rng.randint(1, 90)
        g = random_graph(rng, n, rng.random())
        if i % 3 == 0:  # any subset
            members = rng.getrandbits(n) or 1 << rng.randrange(n)
        elif i % 3 == 1:  # one run
            lo = rng.randrange(n)
            members = ((1 << rng.randint(1, n - lo)) - 1) << lo
        else:  # every other vertex: one run per member
            members = sum(1 << v for v in range(rng.randrange(min(2, n)), n, 2))
        assert induced_subgraph(g, members) == induced_subgraph_per_bit(g, members)


def test_symmetry_check_matches_per_arc_oracle():
    rng = random.Random(505)
    for n in [*range(2, 71), 300]:
        g = random_graph(rng, n, rng.choice((0.1, 0.5, 0.9)))
        assert graph_error_per_arc(n, g.adj) is None
        assert Graph(n, g.adj) == g
        rows = list(g.adj)
        u, v = rng.randrange(n), rng.randrange(n)
        rows[u] ^= 1 << v  # u == v makes a loop
        with pytest.raises(GraphError) as err:
            Graph(n, tuple(rows))
        assert str(err.value) == graph_error_per_arc(n, rows)


def test_constructor_rejects_loops_and_asymmetry():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(2, (0b10, 0b00))
    with pytest.raises(GraphError):
        Graph(2, (0b100, 0b01))  # row wider than n


def test_one_way_edges_are_named_in_either_direction():
    rows = list(Graph.complete(5).adj)
    rows[3] &= ~(1 << 1)  # 1->3 stays: a one-way arc above the diagonal
    with pytest.raises(GraphError, match="asymmetric edge 1-3"):
        Graph(5, tuple(rows))
    rows = list(Graph.complete(5).adj)
    rows[1] &= ~(1 << 3)  # 3->1 stays: a one-way arc below the diagonal
    with pytest.raises(GraphError, match="asymmetric edge 3-1"):
        Graph(5, tuple(rows))
    with pytest.raises(GraphError, match="asymmetric edge 0-2"):
        Graph(4, (0b0100, 0b0100, 0b0010, 0b0000))  # 0->2 and 2->1 one-way


def test_graph_immutable():
    g = Graph.complete(3)
    with pytest.raises(AttributeError):
        g.n = 5


def test_without_edges():
    g = Graph.complete(4).without_edges([(0, 1), (2, 3)])
    assert not g.has_edge(0, 1) and not g.has_edge(2, 3)
    assert g.has_edge(0, 2)
    assert g.edge_count == 4


def test_symmetry_invariant_after_construction():
    rng = random.Random(303)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 15), rng.uniform(0, 1))
        for u in range(g.n):
            assert not g.adj[u] & (1 << u)
            for v in g.neighbors(u):
                assert g.has_edge(v, u)


# -- the random module's draws, taken from getrandbits ---------------------
#
# sampler and draw_shuffle copy random.Random's sample and shuffle, and
# the oracle draw_below its randrange; these compare them with the running
# interpreter's own, and the next random() shows that both streams stayed in
# step.


def _in_step(seed, stdlib_call, own_call):
    ref, own = random.Random(seed), random.Random(seed)
    expected = stdlib_call(ref)
    got = own_call(own.getrandbits)
    assert got == expected
    assert own.random() == ref.random()


@pytest.mark.parametrize("n, k", [
    (40, 9), (40, 40), (40, 0), (400, 3), (400, 0), (120, 7), (120, 21), (120, 22),
    (0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (6, 6), (85, 6), (86, 6),
])
def test_draw_sample_matches_random_sample(n, k):
    population = [3 * v + 1 for v in range(n)]
    for seed in range(25):
        _in_step(seed, lambda r: r.sample(population, k),
                 lambda bits: sampler(bits, population)(k))
    assert population == [3 * v + 1 for v in range(n)]


def test_one_sampler_draws_the_same_samples_in_a_row():
    # the sampled regularity check builds one sampler per side and calls it
    # once per round; sizes 0..22 of 120 cross the pool/set boundary at 22
    # both ways
    for n in (1, 7, 40, 120):
        population = [5 * v + 2 for v in range(n)]
        sizes = [k % (n + 1) for k in (0, 3, 22, 21, 7, 22, 40, 1, 120, 9, 22, 6)]
        for seed in range(10):
            _in_step(seed, lambda r: [r.sample(population, k) for k in sizes],
                     lambda bits: list(map(sampler(bits, population), sizes)))
        assert population == [5 * v + 2 for v in range(n)]


# lengths at and just past powers of two, where the first draw's bit width
# steps up, and the dense generator's n=401 cross-pair list
@pytest.mark.parametrize("n", [
    0, 1, 2, 3, 4, 5, 8, 9, 17, 256, 257, 1000, 32768, 32769, 40200,
])
def test_draw_shuffle_matches_random_shuffle(n):
    for seed in range(25):
        def stdlib(r):
            x = list(range(n))
            r.shuffle(x)
            return x

        def own(bits):
            x = list(range(n))
            assert draw_shuffle(bits, x) is None
            return x
        _in_step(seed, stdlib, own)


@pytest.mark.parametrize("lo, hi", [(5, 5), (0, 1), (9, 40), (0, 2**40), (-3, 64)])
def test_draw_below_matches_random_randint(lo, hi):
    for seed in range(25):
        _in_step(seed, lambda r: [r.randint(lo, hi) for _ in range(20)],
                 lambda bits: [lo + draw_below(bits, hi - lo + 1) for _ in range(20)])
