import hashlib
import random
from fractions import Fraction

import pytest

from kordered import (
    ConstructionError,
    Graph,
    build_dense_bipartite_instance,
    build_sharpness_graph,
    build_sparse_cut_instance,
    degree_profile,
    encode_graph6,
    enumerate_hamiltonian_cycles,
    find_s_cycle,
    min_degree_threshold,
    random_graph_min_degree,
    sharpness_min_degree,
)


# -- sharpness construction ---------------------------------------------


def test_min_degree_matches_closed_form_everywhere():
    for n in range(4, 22):
        for k in range(2, n // 2 + 1):
            sg = build_sharpness_graph(n, k)
            assert sg.min_degree == sharpness_min_degree(n, k), (n, k)


def test_structure_is_two_cliques_plus_connectors():
    sg = build_sharpness_graph(10, 4)
    g = sg.graph
    h = 2  # floor(k/2)
    for side in (sg.u_side, sg.w_side):
        for i, u in enumerate(side):
            for v in side[i + 1:]:
                assert g.has_edge(u, v)
    w_conn = set(sg.w_side[:h])
    u_conn = set(sg.u_side[: h - 1])
    for u in sg.u_side:
        for w in sg.w_side:
            expected = w in w_conn or u in u_conn
            assert g.has_edge(u, w) == expected


def test_witness_patterns():
    assert build_sharpness_graph(10, 4).witness == (1, 7, 2, 8)  # u2 w3 u3 w4
    assert build_sharpness_graph(9, 3).witness == (0, 5, 1)  # u1 w2 u2
    assert build_sharpness_graph(9, 3).min_degree == 4
    for n in range(6, 16):
        for k in range(2, n // 2 + 1):
            assert len(build_sharpness_graph(n, k).witness) == k


def test_witness_admits_no_cycle_small():
    for n in range(8, 13):
        for k in range(2, n // 2 + 1):
            sg = build_sharpness_graph(n, k)
            assert find_s_cycle(sg.graph, sg.witness) is None, (n, k)


def test_every_side_switch_uses_a_connector():
    # static form: every cross edge touches a connector vertex...
    sg = build_sharpness_graph(12, 4)
    h = 2
    conn = set(sg.w_side[:h]) | set(sg.u_side[: h - 1])
    u_set = set(sg.u_side)
    for u, v in sg.graph.edges():
        if (u in u_set) != (v in u_set):
            assert u in conn or v in conn
    # ...and dynamically on every Hamiltonian cycle of a small instance
    sg = build_sharpness_graph(10, 4)
    conn = set(sg.w_side[:h]) | set(sg.u_side[: h - 1])
    u_set = set(sg.u_side)
    count = 0
    for cyc in enumerate_hamiltonian_cycles(sg.graph):
        count += 1
        for i in range(len(cyc)):
            a, b = cyc[i], cyc[(i + 1) % len(cyc)]
            if (a in u_set) != (b in u_set):
                assert a in conn or b in conn
    assert count == 3024  # frozen enumeration size for (n=10, k=4)


def test_parameter_bounds():
    with pytest.raises(ConstructionError):
        build_sharpness_graph(10, 6)  # k > floor(n/2)
    with pytest.raises(ConstructionError):
        build_sharpness_graph(3, 2)
    with pytest.raises(ConstructionError):
        build_sharpness_graph(12, 1)


# -- sparse cut instances -----------------------------------------------


def test_sparse_cut_example_values():
    inst = build_sparse_cut_instance(60, 2, 1, seed=0)
    assert inst.min_degree == 30
    assert inst.cross_density == Fraction(30, 900)
    inst = build_sparse_cut_instance(60, 4, 2, seed=0)
    assert inst.min_degree == 31


def test_sparse_cut_density_formula():
    # cut_degree shifted matchings: density is exactly cut_degree/(n/2)
    # for even n, so it only drops under 0.05 once n > 40*cut_degree
    for n in (60, 70, 80, 90):
        for cd in (1, 2):
            inst = build_sparse_cut_instance(n, 2, cd, seed=3)
            assert inst.cross_density == Fraction(2 * cd, n)
            if n > 40 * cd:
                assert inst.cross_density < Fraction(5, 100)


def test_sparse_cut_meets_degree_floor():
    rng = random.Random(40)
    for _ in range(15):
        n = rng.randint(30, 80)
        k = rng.randint(2, 8)
        inst = build_sparse_cut_instance(n, k, seed=rng.randrange(1000))
        assert inst.min_degree >= min_degree_threshold(n, k)
        # sides are cliques
        g = inst.graph
        for side in (inst.side_a, inst.side_b):
            for i, u in enumerate(side):
                for v in side[i + 1:]:
                    assert g.has_edge(u, v)


def test_sparse_cut_infeasible_cut_degree():
    with pytest.raises(ConstructionError):
        build_sparse_cut_instance(60, 4, 1, seed=0)  # needs 2
    with pytest.raises(ConstructionError):
        build_sparse_cut_instance(60, 2, 40, seed=0)


def test_sparse_cut_deterministic():
    a = build_sparse_cut_instance(50, 3, seed=9)
    b = build_sparse_cut_instance(50, 3, seed=9)
    assert a.graph == b.graph
    assert a.graph != build_sparse_cut_instance(50, 3, seed=10).graph


# -- dense bipartite instances ------------------------------------------


def test_dense_balanced_instance():
    inst = build_dense_bipartite_instance(60, 2, 0, seed=1)
    assert inst.min_degree >= 30
    assert inst.cross_density > Fraction(9, 10)
    assert len(inst.side_a) == len(inst.side_b) == 30


def test_dense_imbalanced_instance_has_internal_matching_edge():
    inst = build_dense_bipartite_instance(61, 3, 1, seed=2)
    assert len(inst.side_a) == 31 and len(inst.side_b) == 30
    g = inst.graph
    internal = [
        (u, v)
        for i, u in enumerate(inst.side_a)
        for v in inst.side_a[i + 1:]
        if g.has_edge(u, v)
    ]
    assert internal  # supports the balancing matching
    assert inst.min_degree >= min_degree_threshold(61, 3)


def test_dense_parity_infeasible():
    with pytest.raises(ConstructionError):
        build_dense_bipartite_instance(60, 2, 1, seed=0)
    with pytest.raises(ConstructionError):
        build_dense_bipartite_instance(61, 2, 0, seed=0)
    with pytest.raises(ConstructionError):
        build_dense_bipartite_instance(60, 2, 30, seed=0)


def test_dense_deterministic():
    a = build_dense_bipartite_instance(40, 2, 2, seed=5)
    b = build_dense_bipartite_instance(40, 2, 2, seed=5)
    assert a.graph == b.graph


# -- random graphs with a degree floor ----------------------------------


def test_random_min_degree_postcondition():
    for seed in range(5):
        g = random_graph_min_degree(10, 5, seed=seed)
        assert degree_profile(g).min_degree >= 5


def test_random_min_degree_deterministic():
    assert random_graph_min_degree(12, 6, seed=3) == random_graph_min_degree(12, 6, seed=3)


def test_random_min_degree_forced_complete():
    assert random_graph_min_degree(12, 11, seed=0) == Graph.complete(12)


# -- pinned output --------------------------------------------------------
#
# The tests above compare two calls in one process; these pin which graph
# a parameter set and seed give, so a silent change of a generator shows.


def _pinned_records():
    for n in range(4, 25):
        for k in range(2, n // 2 + 1):
            sg = build_sharpness_graph(n, k)
            yield ("sharpness", n, k, encode_graph6(sg.graph), sg.u_side, sg.w_side,
                   sg.witness, sg.min_degree)
    for seed in range(3):
        for n in (8, 9, 24, 25, 60):
            for k in (2, 4):
                for cut_degree in (None, 3):
                    yield _cluster_record(build_sparse_cut_instance(n, k, cut_degree, seed=seed))
        for n in (40, 41, 61, 62):
            for k in (2, 5):
                for r in range(n % 2, max(2, n // 10) + 1, 2):
                    yield _cluster_record(build_dense_bipartite_instance(n, k, r, seed=seed))
        for n in (5, 10, 20, 40):
            for delta in (0, n // 4, n // 2 + 1, n - 2):
                g = random_graph_min_degree(n, delta, seed=seed)
                yield ("random", n, delta, seed, encode_graph6(g), degree_profile(g).min_degree)


def _cluster_record(inst):
    return (encode_graph6(inst.graph), inst.side_a, inst.side_b, inst.min_degree,
            str(inst.cross_density), sorted(inst.params.items()))


# recorded with the generators as they were before their one-pass rewrite
PINNED_DIGEST = "1da053b17ea5fa160096957183d26e1e175b1134aa13e78e84ec3f2bea6f640a"


def test_generator_output_is_pinned():
    h = hashlib.sha256()
    for record in _pinned_records():
        h.update(repr(record).encode() + b"\n")
    assert h.hexdigest() == PINNED_DIGEST


def _benchmark_sized_records():
    for seed in range(3):
        yield _cluster_record(build_dense_bipartite_instance(401, 3, imbalance=1, seed=seed))
        yield _cluster_record(build_sparse_cut_instance(400, 4, seed=seed))


# the instances the extremal benchmark solves: at n=401 the shuffled cross
# pairs pass 2^15 and the deletion walk runs long, which n <= 62 never reach;
# recorded before the deletion walk stopped at its last possible deletion
PINNED_BENCHMARK_SIZED_DIGEST = "689a5c49d8c08d83ebf19bf3e5077484a625ba8c05b582bed0ce1d7d005f159c"


def test_benchmark_sized_generator_output_is_pinned():
    h = hashlib.sha256()
    for record in _benchmark_sized_records():
        h.update(repr(record).encode() + b"\n")
    assert h.hexdigest() == PINNED_BENCHMARK_SIZED_DIGEST


def test_generator_graph6_literals():
    assert encode_graph6(build_sharpness_graph(8, 4).graph) == "G~~{[["
    assert encode_graph6(build_sparse_cut_instance(8, 2, seed=1).graph) == "G~EIX["
    assert encode_graph6(build_dense_bipartite_instance(10, 2, seed=1).graph) == "I?B~vrw}?"
    assert encode_graph6(random_graph_min_degree(8, 4, seed=1)) == "GjyV{{"
