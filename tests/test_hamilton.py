import random
from itertools import combinations, permutations

import pytest

from kordered import (
    Graph,
    GraphError,
    HamCycle,
    NotHamiltonianError,
    bipartite_posa_condition,
    build_sharpness_graph,
    degree_profile,
    enumerate_hamiltonian_cycles,
    find_hamiltonian_path,
    find_s_cycle,
    hamiltonian_cycle,
    is_k_ordered,
    posa_condition,
    verify_s_cycle,
)
from kordered.core import bit_list, mask_of
from kordered.hamilton import _nth_bit, _path_within, realised_sequences
from oracles import (
    canonical_sequence,
    first_failing_sequence_naive,
    ham_path_by_list_dp,
    ham_path_exists_naive,
    is_k_ordered_by_enumeration,
    naive_hamiltonian_cycles,
    path_through_subgraph,
    random_graph,
    rotation_path_by_listing,
    s_cycle_by_list_dp,
    s_cycle_exists_naive,
)


# -- find_s_cycle -------------------------------------------------------


def test_cycle_respects_its_own_order():
    c = find_s_cycle(Graph.cycle(6), (0, 2, 4))
    assert c is not None
    assert verify_s_cycle(Graph.cycle(6), (0, 2, 4), c)


def test_c6_has_no_interleaved_order():
    # C6's unique Hamiltonian cycle meets (0,2,1,3) in neither direction
    assert find_s_cycle(Graph.cycle(6), (0, 2, 1, 3)) is None


def test_sharpness_witness_has_no_cycle():
    sg = build_sharpness_graph(10, 4)
    assert find_s_cycle(sg.graph, sg.witness) is None


def test_invalid_sequences_raise():
    g = Graph.complete(4)
    with pytest.raises(GraphError):
        find_s_cycle(g, (0, 0, 1))
    with pytest.raises(GraphError):
        find_s_cycle(g, (0, 1, 2, 3, 3))
    with pytest.raises(GraphError):
        find_s_cycle(g, (0,))
    with pytest.raises(GraphError):
        find_s_cycle(g, (0, 9))


def test_solver_output_always_verifies():
    rng = random.Random(21)
    for _ in range(80):
        n = rng.randint(4, 10)
        g = random_graph(rng, n, rng.uniform(0.4, 0.95))
        k = rng.randint(2, min(5, n))
        seq = tuple(rng.sample(range(n), k))
        c = find_s_cycle(g, seq)
        if c is not None:
            assert verify_s_cycle(g, seq, c)


def test_agrees_with_naive_oracle():
    rng = random.Random(22)
    for _ in range(120):
        n = rng.randint(4, 9)
        g = random_graph(rng, n, rng.uniform(0.2, 0.95))
        k = rng.randint(2, min(5, n))
        seq = tuple(rng.sample(range(n), k))
        assert (find_s_cycle(g, seq) is not None) == s_cycle_exists_naive(g, seq)


def test_same_cycles_and_paths_as_the_list_dp():
    # the staged kernel reaches the list DP's states and walks back the
    # same way, so every answer is the same one, None included
    rng = random.Random(24)
    nones = 0
    for _ in range(300):
        n = rng.randint(3, 13)
        g = random_graph(rng, n, rng.uniform(0.2, 0.95))
        k = rng.randint(1, min(6, n))
        seq = tuple(rng.sample(range(n), max(k, 2)))
        if k == 1:
            x, y = seq
            got = find_hamiltonian_path(g, x, y, restarts=0).path
            want = ham_path_by_list_dp(g, x, y)
        else:
            got = find_s_cycle(g, seq)
            want = s_cycle_by_list_dp(g, seq)
        assert (got.order if got else None) == want, (g, seq)
        nones += want is None
    assert 50 < nones < 250
    # the path DP leaves y out and ends on a neighbour of it: larger n,
    # x next to y, n=3, and a y whose only neighbour is x
    cases = [(random_graph(rng, n, p), *rng.sample(range(n), 2))
             for n, p in ((14, 0.5), (15, 0.45), (16, 0.3))]
    near = random_graph(rng, 15, 0.4)
    cases.append((Graph.from_edges(15, [*near.edges(), (2, 9)]), 2, 9))
    cases += [(Graph.path(3), 0, 2), (Graph.path(3), 0, 1), (Graph.complete(3), 1, 2)]
    # 5 hangs off 0 alone
    pendant = Graph.from_edges(6, [(0, 5), (0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)])
    cases += [(pendant, 0, 5), (pendant, 1, 5)]
    for g, x, y in cases:
        got = find_hamiltonian_path(g, x, y, restarts=0).path
        assert (got.order if got else None) == ham_path_by_list_dp(g, x, y), (g, x, y)


def test_dihedral_invariance():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(5, 9)
        g = random_graph(rng, n, rng.uniform(0.3, 0.9))
        k = rng.randint(3, min(5, n))
        seq = tuple(rng.sample(range(n), k))
        base = find_s_cycle(g, seq) is not None
        rot = rng.randrange(k)
        rotated = seq[rot:] + seq[:rot]
        assert (find_s_cycle(g, rotated) is not None) == base
        assert (find_s_cycle(g, tuple(reversed(seq))) is not None) == base


# -- verify_s_cycle -----------------------------------------------------


def test_verify_reason_order_violated():
    ver = verify_s_cycle(Graph.cycle(6), (0, 2, 1, 3), HamCycle(tuple(range(6))))
    assert not ver and ver.reason == "order violated"


def test_verify_reason_non_edge():
    ver = verify_s_cycle(Graph.cycle(6), (0, 1), HamCycle((0, 2, 1, 3, 4, 5)))
    assert not ver and ver.reason == "non-edge"


def test_verify_reason_missing_vertex():
    ver = verify_s_cycle(Graph.cycle(6), (0, 1), HamCycle((0, 1, 2, 3, 4, 4)))
    assert not ver and ver.reason == "missing vertex"
    ver = verify_s_cycle(Graph.cycle(6), (0, 1), HamCycle((0, 1, 2, 3)))
    assert not ver and ver.reason == "missing vertex"


# -- cycle enumeration --------------------------------------------------


def test_enumeration_matches_naive():
    rng = random.Random(24)
    for _ in range(40):
        n = rng.randint(3, 9)
        g = random_graph(rng, n, rng.uniform(0.3, 1.0))
        assert sorted(enumerate_hamiltonian_cycles(g)) == sorted(
            naive_hamiltonian_cycles(g)
        )


def test_complete_graph_cycle_count():
    # (n-1)!/2 distinct Hamiltonian cycles in K_n
    assert sum(1 for _ in enumerate_hamiltonian_cycles(Graph.complete(6))) == 60


# -- is_k_ordered -------------------------------------------------------


def test_every_hamiltonian_graph_is_2_and_3_ordered():
    rng = random.Random(25)
    done = 0
    while done < 25:
        g = random_graph(rng, rng.randint(4, 9), rng.uniform(0.4, 0.9))
        if hamiltonian_cycle(g) is None:
            continue
        done += 1
        assert is_k_ordered(g, 2) == (True, None)
        assert is_k_ordered(g, 3) == (True, None)


def test_complete_graphs_are_n_ordered():
    for n in range(3, 8):
        assert is_k_ordered(Graph.complete(n), n) == (True, None)


def test_c6_not_4_ordered_with_checked_witness():
    ok, witness = is_k_ordered(Graph.cycle(6), 4)
    assert not ok
    assert witness == canonical_sequence(witness)
    assert find_s_cycle(Graph.cycle(6), witness) is None


def test_sharpness_graph_not_k_ordered():
    sg = build_sharpness_graph(10, 4)
    ok, witness = is_k_ordered(sg.graph, 4)
    assert not ok
    assert find_s_cycle(sg.graph, witness) is None


def test_realised_sequences_equal_canonical_subsets():
    rng = random.Random(21)
    for n in range(4, 13):
        for k in range(2, n + 1):
            for _ in range(4):
                order = list(range(n))
                rng.shuffle(order)
                assert realised_sequences(order, k) == {
                    canonical_sequence(t) for t in combinations(order, k)
                }


def test_matches_sequence_by_sequence_decision():
    # cross-check the covering engine against direct DP over every
    # canonical sequence
    rng = random.Random(26)
    for _ in range(12):
        n = rng.randint(5, 7)
        g = random_graph(rng, n, rng.uniform(0.5, 0.95))
        if hamiltonian_cycle(g) is None:
            continue
        k = 4
        failing = [
            (subset[0],) + rest
            for subset in combinations(range(n), k)
            for rest in permutations(subset[1:])
            if rest[0] < rest[-1] and find_s_cycle(g, (subset[0],) + rest) is None
        ]
        got, witness = is_k_ordered(g, k)
        assert got == (not failing)
        assert witness == (min(failing) if failing else None)


def test_cover_settles_sharpness_and_complete_graphs():
    sg = build_sharpness_graph(10, 4)
    ok, witness = is_k_ordered(sg.graph, 4)
    assert not ok
    assert find_s_cycle(sg.graph, witness) is None
    assert is_k_ordered(Graph.complete(7), 4) == (True, None)


def test_witness_matches_enumeration_and_naive_oracles():
    # the witness is the lexicographically least failing canonical
    # sequence over all k-subsets, not the first one in subset order
    rng = random.Random(32)
    outcomes = set()
    for _ in range(30):
        n = rng.randint(6, 10)
        k = rng.choice((4, 5))
        g = random_graph(rng, n, rng.uniform(0.45, 0.8))
        expected = is_k_ordered_by_enumeration(g, k)
        if expected is None:
            with pytest.raises(NotHamiltonianError):
                is_k_ordered(g, k)
            outcomes.add("not hamiltonian")
            continue
        assert is_k_ordered(g, k) == expected, (g.adj, k)
        assert expected[1] == first_failing_sequence_naive(g, k)
        outcomes.add(expected[0])
    assert outcomes == {True, False, "not hamiltonian"}


def test_monotonicity_on_small_graphs():
    rng = random.Random(27)
    done = 0
    while done < 15:
        n = rng.randint(6, 8)
        g = random_graph(rng, n, rng.uniform(0.5, 0.95))
        if hamiltonian_cycle(g) is None:
            continue
        done += 1
        ordered_k = [k for k in range(2, 6) if is_k_ordered(g, k)[0]]
        if ordered_k:
            top = max(ordered_k)
            assert ordered_k == list(range(2, top + 1))


def test_non_hamiltonian_raises_distinct_error():
    with pytest.raises(NotHamiltonianError):
        is_k_ordered(Graph.path(5), 2)
    with pytest.raises(GraphError):
        is_k_ordered(Graph.complete(5), 1)
    with pytest.raises(GraphError):
        is_k_ordered(Graph.complete(5), 6)


# -- degree predicates --------------------------------------------------


def test_posa_condition_examples():
    assert posa_condition(Graph.complete(5))
    assert not posa_condition(Graph.cycle(6))  # d_1 = 2 not > 2
    assert not posa_condition(Graph.complete_bipartite(4, 4))


def test_posa_condition_implies_ham_connected_small():
    rng = random.Random(28)
    done = 0
    while done < 10:
        n = rng.randint(5, 9)
        g = random_graph(rng, n, rng.uniform(0.6, 1.0))
        if not posa_condition(g):
            continue
        done += 1
        for x in range(n):
            for y in range(x + 1, n):
                assert ham_path_exists_naive(g, x, y)


def test_bipartite_posa_examples():
    g = Graph.complete_bipartite(4, 4)
    assert bipartite_posa_condition(g, range(4), range(4, 8))
    pm = Graph.from_edges(8, [(i, 4 + i) for i in range(4)])
    assert not bipartite_posa_condition(pm, range(4), range(4, 8))
    k66 = Graph.complete_bipartite(6, 6).without_edges(
        [(i, 6 + i) for i in range(6)]
    )
    assert bipartite_posa_condition(k66, range(6), range(6, 12))


def test_bipartite_posa_validates_sides():
    g = Graph.complete_bipartite(3, 4)
    with pytest.raises(GraphError):
        bipartite_posa_condition(g, range(3), range(3, 7))


# -- Dirac anchor -------------------------------------------------------


def test_dirac_minimum_degree_implies_hamiltonian():
    rng = random.Random(29)
    done = 0
    while done < 40:
        n = rng.randint(3, 12)
        g = random_graph(rng, n, rng.uniform(0.5, 1.0))
        if degree_profile(g).min_degree * 2 < n:
            continue
        done += 1
        assert hamiltonian_cycle(g) is not None


# -- Hamiltonian path ---------------------------------------------------


def test_complete_graph_every_pair():
    g = Graph.complete(6)
    for x in range(6):
        for y in range(6):
            if x != y:
                res = find_hamiltonian_path(g, x, y)
                assert res.path is not None
                assert (res.path.order[0], res.path.order[-1]) == (x, y)


def test_path_graph_endpoints():
    g = Graph.path(4)
    res = find_hamiltonian_path(g, 0, 3)
    assert res.path is not None and res.path.order == (0, 1, 2, 3)
    res = find_hamiltonian_path(g, 1, 2)
    assert res.path is None and res.authoritative  # exhaustive at this size


def test_same_endpoint_raises():
    with pytest.raises(GraphError):
        find_hamiltonian_path(Graph.complete(4), 2, 2)


def test_inconclusive_flag_above_threshold():
    g = Graph.path(30)  # rotation cannot find 1 -> 2 and n > threshold
    res = find_hamiltonian_path(g, 1, 2, restarts=3)
    assert res.path is None and not res.authoritative


def test_exact_engines_refuse_graphs_past_the_cap():
    # n=25 would need a 2^25-entry DP table; the refusal comes before it
    g = Graph.complete(25)
    with pytest.raises(GraphError, match="EXACT_SOLVER_LIMIT"):
        find_s_cycle(g, (0, 1, 2))
    with pytest.raises(GraphError, match="EXACT_SOLVER_LIMIT"):
        is_k_ordered(g, 4)


def test_agrees_with_naive_path_oracle():
    rng = random.Random(30)
    for _ in range(60):
        n = rng.randint(3, 9)
        g = random_graph(rng, n, rng.uniform(0.3, 0.9))
        x, y = rng.sample(range(n), 2)
        res = find_hamiltonian_path(g, x, y, restarts=5)
        assert (res.path is not None) == ham_path_exists_naive(g, x, y)
        if res.path is not None:
            order = res.path.order
            assert order[0] == x and order[-1] == y
            assert sorted(order) == list(range(n))
            assert all(g.has_edge(u, v) for u, v in zip(order, order[1:]))


def test_rotation_stage_draws_the_same_paths_as_listing():
    # the r-th set bit for r = randrange(count) is the draw the listing
    # made, so every seed gives the same path, sparse or dense
    rng = random.Random(32)
    found = 0
    for _ in range(60):
        n = rng.randint(8, 200)
        p = rng.choice((rng.uniform(0.04, 0.15), rng.uniform(0.5, 0.95)))
        g = random_graph(rng, n, p)
        x, y = rng.sample(range(n), 2)
        restarts, seed = rng.randint(1, 4), rng.randrange(100)
        want = rotation_path_by_listing(g, x, y, restarts, seed)
        res = find_hamiltonian_path(g, x, y, restarts=restarts, seed=seed)
        assert (res.path.order if res.method == "rotation" else None) == want, (n, x, y)
        found += want is not None
    assert 20 < found < 60


def _random_span(rng, n: int, size: int) -> tuple[int, int, int]:
    members = rng.sample(range(n), size)
    return mask_of(members), members[0], members[1]


def test_path_within_a_span_is_the_induced_subgraph_search():
    # a span of at most EXACT_SOLVER_LIMIT vertices gets the exact stage
    # inside a graph above the cap; a larger one gets only rotation
    rng = random.Random(37)
    methods = set()
    for _ in range(50):
        n = rng.randint(26, 60)
        g = random_graph(rng, n, rng.uniform(0.15, 0.6))
        seed = rng.randrange(100)
        if rng.random() < 0.6:
            span, x, y = _random_span(rng, n, rng.randint(3, 24))
            restarts = 0
        else:
            span, x, y = _random_span(rng, n, rng.randint(25, n))
            restarts = 50
        got = _path_within(g, span, x, y, restarts, seed)
        assert got == path_through_subgraph(g, span, x, y, restarts, seed), (n, span, x, y)
        methods.add((got.method, got.authoritative))
    assert methods == {("exact", True), ("none", True), ("rotation", True), ("none", False)}


def test_path_within_runs_the_kernel_up_to_the_cap(monkeypatch):
    # spans 0..23 and 0..24 of C400 induce paths: only the kernel can
    # answer with restarts=0, and it runs on 24 members but not on 25
    g = Graph.cycle(400)
    full = _path_within(g, (1 << 24) - 1, 0, 23, restarts=0)
    assert full == path_through_subgraph(g, (1 << 24) - 1, 0, 23, restarts=0)
    assert full.path.order == tuple(range(24)) and full.method == "exact"
    none = _path_within(g, (1 << 24) - 1, 0, 5, restarts=0)
    assert none.path is None and none.authoritative
    monkeypatch.setattr("kordered.hamilton._anchored_path", None)  # a kernel call would raise
    past = _path_within(g, (1 << 25) - 1, 0, 24, restarts=0)
    assert past.path is None and not past.authoritative


def test_nth_bit_is_the_listed_bit():
    rng = random.Random(33)
    for _ in range(300):
        mask = rng.getrandbits(rng.randint(1, 800)) | 1 << rng.randrange(800)
        listed = bit_list(mask)
        for r in {0, len(listed) - 1, rng.randrange(len(listed))}:
            assert _nth_bit(mask, r) == listed[r]


def test_posa_graphs_hamiltonian_connected_via_search():
    rng = random.Random(31)
    done = 0
    while done < 15:
        n = rng.randint(6, 12)
        g = random_graph(rng, n, rng.uniform(0.6, 0.95))
        if not posa_condition(g):
            continue
        done += 1
        for x in range(n):
            for y in range(x + 1, n):
                assert find_hamiltonian_path(g, x, y).path is not None
