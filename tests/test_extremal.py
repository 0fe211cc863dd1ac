import hashlib
import json
import random
from fractions import Fraction

import pytest

from kordered import (
    ExtremalParams,
    Graph,
    GraphError,
    HypothesisViolation,
    PathSystem,
    RoutingError,
    StageError,
    build_dense_bipartite_instance,
    build_sparse_cut_instance,
    classify_extremal,
    cleanup_dense,
    cleanup_sparse,
    connect_pairs,
    mask_of,
    solve_extremal,
    solve_extremal_dense,
    solve_extremal_sparse,
    verify_s_cycle,
)
from kordered.cli import main
from kordered.extremal import _exceptional, _heavy, _low_degree
from kordered.hamilton import PathSearchResult
from oracles import exceptional_by_fractions, heavy_by_fractions, low_degree_by_fractions

DESK = ExtremalParams(alpha=Fraction(3, 10))
WIDE = ExtremalParams(beta=Fraction(5, 100), alpha=Fraction(3, 10))


def test_params_ladder_enforced():
    for bad in (
        {"alpha": Fraction(1, 1000)},  # below beta
        {"alpha": Fraction(1, 100)},  # equal to beta
        {"beta": Fraction(0)},
        {"beta": Fraction(-1, 10)},
        {"alpha": Fraction(1)},
    ):
        with pytest.raises(GraphError):
            ExtremalParams(**bad)
    with pytest.raises(TypeError):
        ExtremalParams(kappa=Fraction(1, 10000))  # the solvers read only beta, alpha
    p = ExtremalParams()
    assert 0 < p.beta < p.alpha < 1


# -- classifier ---------------------------------------------------------


def test_identical_clusters_classify_dense():
    g = Graph.complete_bipartite(8, 8)
    side = list(range(8))
    case = classify_extremal(g, side, side, ExtremalParams())
    assert case.label == "dense"
    core, rest = case.solver_sides
    assert set(core) == set(side)
    assert set(rest) == set(range(8, 16))


def test_disjoint_clusters_classify_sparse():
    inst = build_sparse_cut_instance(80, 2, 1, seed=1)
    case = classify_extremal(inst.graph, inst.side_a, inst.side_b, WIDE)
    assert case.label == "sparse"
    assert set(case.solver_sides[0]) == set(inst.side_a)


def test_middle_band_is_impossible():
    g = Graph.empty(16)
    a = list(range(8))
    b = list(range(4, 12))  # overlap 4 = n/4
    case = classify_extremal(g, a, b, ExtremalParams())
    assert case.label == "impossible"
    with pytest.raises(HypothesisViolation):
        solve_extremal(g, a, b, (0, 1), ExtremalParams())


def test_classifier_checks_hypotheses():
    g = Graph.complete(16)
    with pytest.raises(HypothesisViolation):
        classify_extremal(g, range(8), range(8, 16), ExtremalParams())  # density 1
    with pytest.raises(HypothesisViolation):
        classify_extremal(Graph.empty(16), range(2), range(8, 16), ExtremalParams())


# -- cleanup ------------------------------------------------------------


def test_cleanup_clean_instance_has_no_exceptions():
    inst = build_sparse_cut_instance(60, 2, 1, seed=2)
    cp = cleanup_sparse(inst.graph, inst.side_a, inst.side_b, DESK)
    assert cp.exc_a == () and cp.exc_b == ()
    assert cp.leftovers == ()
    assert sorted(cp.side_a + cp.side_b) == list(range(60))
    assert set(cp.side_a) & set(cp.side_b) == set()


def test_cleanup_moves_planted_high_cross_vertex():
    # two cliques, then rewire vertex 0 to most of B: its cross degree
    # passes sqrt(alpha)|B| so it is exceptional, and the degree rule
    # sends it to B
    inst = build_sparse_cut_instance(40, 2, 1, seed=3)
    g = inst.graph
    extra = [(0, v) for v in inst.side_b if not g.has_edge(0, v)]
    drop = [(0, v) for v in inst.side_a[1:15]]
    g2 = Graph.from_edges(40, list(set(g.edges()) | set(extra)) ).without_edges(drop)
    cp = cleanup_sparse(g2, inst.side_a, inst.side_b, DESK)
    assert 0 in cp.exc_a
    assert 0 in cp.side_b
    assert sorted(cp.side_a + cp.side_b) == list(range(40))


def test_cleanup_assigns_leftovers():
    inst = build_sparse_cut_instance(40, 2, 1, seed=4)
    cp = cleanup_sparse(inst.graph, inst.side_a[:18], inst.side_b, DESK)
    assert set(cp.leftovers) == set(inst.side_a[18:])
    # clique vertices rejoin their own side
    assert set(inst.side_a) <= set(cp.side_a)


def test_cleanup_dense_flags_low_cross_vertex():
    inst = build_dense_bipartite_instance(40, 2, 0, seed=5)
    g = inst.graph
    a0 = inst.side_a[0]
    drop = [(a0, v) for v in inst.side_b if g.has_edge(a0, v)][:16]
    keep_floor = [(a0, u) for u in inst.side_a[1:18] if not g.has_edge(a0, u)]
    g2 = g.without_edges(drop)
    g2 = Graph.from_edges(40, list(set(g2.edges()) | set(keep_floor)))
    cp = cleanup_dense(g2, inst.side_a, inst.side_b, DESK)
    assert a0 in cp.exc_a
    # dense reassignment is opposite the dominant side, so the planted
    # vertex (internal degree 17 vs cross 14) lands in B with high cross
    assert a0 in cp.side_b
    assert sorted(cp.side_a + cp.side_b) == list(range(40))


ALPHAS = [Fraction(1, 100), Fraction(1, 10), Fraction(3, 10), Fraction(299, 1000),
          Fraction(1, 3), Fraction(99, 100)]


def test_integer_degree_tests_agree_with_fraction_roots():
    # every degree at every side size to 450 and every order to 820, past
    # the benchmark's n=400/401 (sides ~200, n/2, n)
    for alpha in ALPHAS:
        for size in range(1, 451):
            for deg in range(size + 1):
                for dense in (False, True):
                    assert _exceptional(deg, size, alpha, dense) == \
                        exceptional_by_fractions(deg, size, alpha, dense), (deg, size, alpha)
                assert _heavy(deg, size, alpha) == heavy_by_fractions(deg, size, alpha)
        for n in range(1, 821):
            for deg in range(n + 1):
                assert _low_degree(deg, n, alpha) == low_degree_by_fractions(deg, n, alpha)


# -- connecting paths ---------------------------------------------------


def test_paths_inside_clique_are_short():
    g = Graph.complete(12)
    system = connect_pairs(g, [(0, 1), (2, 3), (4, 5)], within=range(12), max_len=4)
    assert all(len(p) - 1 <= 2 for p in system.paths)
    system.validate(g)


def test_shared_endpoints_are_allowed():
    g = Graph.complete(10)
    system = connect_pairs(g, [(0, 1), (1, 2), (2, 3)], within=range(10), max_len=4)
    system.validate(g)
    assert [p[0] for p in system.paths] == [0, 1, 2]


def test_routing_failure_names_the_pair():
    g = Graph.from_edges(6, [(0, 1), (2, 3)])
    with pytest.raises(RoutingError) as err:
        connect_pairs(g, [(0, 3)], within=range(6), max_len=4)
    assert err.value.pair == (0, 3)


def test_cross_mode_uses_only_cross_edges():
    g = Graph.complete(8)
    a, b = [0, 1, 2, 3], [4, 5, 6, 7]
    system = connect_pairs(g, [(0, 1)], cross=(a, b), max_len=5)
    path = system.paths[0]
    for u, v in zip(path, path[1:]):
        assert (u in a) != (v in a)


def test_interior_disjointness_accounting():
    rng = random.Random(50)
    g = Graph.complete(20)
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
    system = connect_pairs(g, pairs, within=range(20), max_len=4, avoid=[19])
    seen = 0
    for p in system.paths:
        inner = mask_of(p[1:-1])
        assert not inner & seen
        assert not inner & (1 << 19)  # avoid set respected
        seen |= inner


def test_path_system_validate_rejects_non_edges():
    with pytest.raises(GraphError):
        PathSystem(((0, 2),)).validate(Graph.path(3))


# -- sparse solver ------------------------------------------------------


def test_sparse_basic_certified():
    inst = build_sparse_cut_instance(60, 2, 1, seed=6)
    sol = solve_extremal_sparse(inst.graph, inst.side_a, inst.side_b, (0, 30), DESK)
    assert sol.trace["certified"]
    assert verify_s_cycle(inst.graph, (0, 30), sol.cycle)
    assert sol.trace["bridges"] >= sol.trace["transitions"]


def test_sparse_sequence_inside_one_side():
    # exercises the untouched-side branch: both anchors in A, B spliced whole
    inst = build_sparse_cut_instance(60, 2, 1, seed=7)
    seq = (3, 17)
    sol = solve_extremal_sparse(inst.graph, inst.side_a, inst.side_b, seq, DESK)
    assert verify_s_cycle(inst.graph, seq, sol.cycle)


def test_sparse_even_k_bridge_floor():
    # cut instances meet the degree floor, so the cover bound guarantees
    # at least k bridges when k is even
    for k in (2, 4, 6):
        inst = build_sparse_cut_instance(60, k, seed=k)
        seq = tuple(inst.side_a[:(k + 1) // 2]) + tuple(inst.side_b[: k // 2])
        sol = solve_extremal_sparse(inst.graph, inst.side_a, inst.side_b, seq, DESK)
        assert sol.trace["bridges"] >= k
        assert sol.trace["certified"]


def test_sparse_odd_k_bridge_floor():
    # odd k needs only k-1 bridges; the matching must still cover the
    # actual number of side switches
    inst = build_sparse_cut_instance(60, 5, seed=8)
    seq = (0, 31, 4, 40, 12)
    sol = solve_extremal_sparse(inst.graph, inst.side_a, inst.side_b, seq, DESK)
    assert sol.trace["certified"]
    assert sol.trace["transitions"] <= 5 - 1
    assert sol.trace["bridges"] >= 5 - 1


def test_sparse_moved_vertex_leaves_over_its_bridge():
    # x is joined to all of A, so cleanup moves it from B into A; its
    # reserved bridge then runs from x down to a lower B index, and the
    # side switch out of x must still spend it
    inst = build_sparse_cut_instance(41, 2, seed=0)
    x = inst.side_b[-1]
    g = inst.graph
    extra = [(a, x) for a in inst.side_a if not g.has_edge(a, x)]
    g = Graph.from_edges(41, list(g.edges()) + extra)
    seq = (x, inst.side_b[0])
    sol = solve_extremal_sparse(g, inst.side_a, inst.side_b, seq, DESK)
    assert sol.trace["cleanup"]["exceptional"] == 1
    order = sol.cycle.order
    i = order.index(x)
    neighbours = {order[i - 1], order[(i + 1) % len(order)]}
    assert neighbours & (set(inst.side_b) - {x})


def test_solver_traces_are_deterministic():
    sparse = build_sparse_cut_instance(60, 4, seed=5)
    dense = build_dense_bipartite_instance(61, 3, 1, seed=5)
    for solver, inst, seq in (
        (solve_extremal_sparse, sparse, (0, 31, 7, 45)),
        (solve_extremal_dense, dense, (5, 40, 12)),
    ):
        runs = [solver(inst.graph, inst.side_a, inst.side_b, seq, DESK, seed=1) for _ in range(2)]
        assert runs[0].trace == runs[1].trace
        assert runs[0].cycle == runs[1].cycle


def test_sparse_rejects_bad_hypotheses():
    inst = build_sparse_cut_instance(60, 2, 1, seed=9)
    with pytest.raises(HypothesisViolation):
        solve_extremal_sparse(
            inst.graph, inst.side_a[:10], inst.side_b, (0, 30), DESK
        )  # side too small
    with pytest.raises(HypothesisViolation):
        # default alpha is too tight for this k/n ratio: density test fails
        inst2 = build_sparse_cut_instance(40, 8, seed=9)
        solve_extremal_sparse(
            inst2.graph, inst2.side_a, inst2.side_b, tuple(range(8)), ExtremalParams()
        )
    with pytest.raises(HypothesisViolation):
        solve_extremal_sparse(
            inst.graph, inst.side_a, inst.side_a, (0, 30), DESK
        )  # not disjoint


def test_sparse_random_batch_always_certifies():
    rng = random.Random(51)
    for t in range(12):
        n = rng.choice([40, 50, 60, 70])
        k = rng.randint(2, 8)
        inst = build_sparse_cut_instance(n, k, seed=t)
        seq = tuple(rng.sample(range(n), k))
        sol = solve_extremal_sparse(inst.graph, inst.side_a, inst.side_b, seq, DESK, seed=t)
        assert verify_s_cycle(inst.graph, seq, sol.cycle)


# -- dense solver -------------------------------------------------------


def test_dense_balanced_empty_matching_branch():
    inst = build_dense_bipartite_instance(60, 2, 0, seed=10)
    sol = solve_extremal_dense(inst.graph, inst.side_a, inst.side_b, (0, 30), DESK)
    assert sol.trace["certified"]
    assert sol.trace["matching_size"] == 0


def test_dense_imbalance_threads_matching_edge():
    inst = build_dense_bipartite_instance(61, 3, 1, seed=11)
    seq = (5, 40, 12)
    sol = solve_extremal_dense(inst.graph, inst.side_a, inst.side_b, seq, DESK)
    assert sol.trace["certified"]
    assert sol.trace["matching_size"] == sol.trace["imbalance"] == 1
    # the threaded matching edge appears as consecutive cycle vertices
    order = sol.cycle.order
    n = len(order)
    internal_hops = [
        tuple(sorted((order[i], order[(i + 1) % n])))
        for i in range(n)
        if (order[i] in set(inst.side_a)) == (order[(i + 1) % n] in set(inst.side_a))
    ]
    assert internal_hops  # at least the matching hop stays inside a side


def test_dense_same_side_endpoints_get_parity_vertex():
    inst = build_dense_bipartite_instance(60, 2, 0, seed=12)
    seq = (inst.side_a[0], inst.side_a[5])  # both endpoints in A
    sol = solve_extremal_dense(inst.graph, inst.side_a, inst.side_b, seq, DESK)
    assert sol.trace["certified"]


def test_dense_rejects_bad_hypotheses():
    inst = build_dense_bipartite_instance(60, 2, 0, seed=13)
    sparse_inst = build_sparse_cut_instance(60, 2, 1, seed=13)
    with pytest.raises(HypothesisViolation):
        # a sparse-cut instance fails the high-density hypothesis
        solve_extremal_dense(
            sparse_inst.graph, sparse_inst.side_a, sparse_inst.side_b, (0, 30), DESK
        )
    with pytest.raises(HypothesisViolation):
        solve_extremal_dense(inst.graph, inst.side_a[:5], inst.side_b, (0, 30), DESK)


def test_dense_random_batch_always_certifies():
    rng = random.Random(52)
    for t in range(12):
        n = rng.choice([40, 50, 60, 61, 71])
        k = rng.randint(2, 6)
        r = (t % 2) * 2 if n % 2 == 0 else 1
        inst = build_dense_bipartite_instance(n, k, r, seed=t)
        seq = tuple(rng.sample(range(n), k))
        sol = solve_extremal_dense(inst.graph, inst.side_a, inst.side_b, seq, DESK, seed=t)
        assert verify_s_cycle(inst.graph, seq, sol.cycle)


# -- solver failures ------------------------------------------------------


def _no_hamiltonian_paths(monkeypatch):
    """Make every patch and closing path search miss; returns the sizes of
    the vertex sets searched."""
    sizes = []

    def miss(g, span, x, y, restarts=50, seed=0):
        sizes.append(span.bit_count())
        return PathSearchResult(None, "none", False)

    monkeypatch.setattr("kordered.extremal._path_within", miss)
    return sizes


def test_sparse_absorption_failure_names_the_missing_count(monkeypatch):
    sizes = _no_hamiltonian_paths(monkeypatch)
    inst = build_sparse_cut_instance(40, 2, seed=0)
    seq = (inst.side_a[0], inst.side_b[0])
    with pytest.raises(StageError) as err:
        solve_extremal_sparse(inst.graph, inst.side_a, inst.side_b, seq, DESK)
    assert err.value.stage == "absorption"
    # each search spans the missing vertices plus the two anchor ends
    assert f"for {sizes[-1] - 2} missing vertices" in str(err.value)


def test_dense_closing_failure_is_a_stage_error(monkeypatch):
    _no_hamiltonian_paths(monkeypatch)
    inst = build_dense_bipartite_instance(41, 2, 1, seed=0)
    with pytest.raises(StageError) as err:
        solve_extremal_dense(inst.graph, inst.side_a, inst.side_b, (0, 20), DESK)
    assert err.value.stage == "closing"
    assert "remainder vertices" in err.value.detail


def test_cli_solver_failure_is_one_line(monkeypatch, capsys):
    _no_hamiltonian_paths(monkeypatch)
    assert main(["extremal", "--kind", "dense", "--n", "61", "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver failure: [closing] ")
    assert captured.err.count("\n") == 1, captured.err


def test_dispatcher_routes_by_label():
    g = Graph.complete_bipartite(20, 20)
    side = list(range(20))
    sol = solve_extremal(g, side, side, (0, 25), ExtremalParams())
    assert sol.trace["kind"] == "dense"
    assert verify_s_cycle(g, (0, 25), sol.cycle)


# -- pinned output --------------------------------------------------------
#
# The tests above check properties of single runs; this pins which cycle
# and trace each solver returns over a grid that reaches every side-switch
# case (the first vertex's own bridge, the next vertex's own bridge, a free
# bridge), the untouched-side splice and the absorption patch.


def _solver_records():
    for n in (40, 60):
        for k in (2, 3, 4):
            for s in range(20):
                inst = build_sparse_cut_instance(n, k, seed=s)
                yield _solve_record(solve_extremal_sparse, inst, n, k, s)
    for n in (41, 60):
        for k in (2, 3):
            for s in range(10):
                r = (s % 2) * 2 if n % 2 == 0 else 1
                inst = build_dense_bipartite_instance(n, k, r, seed=s)
                yield _solve_record(solve_extremal_dense, inst, n, k, s)


def _solve_record(solver, inst, n, k, s):
    seq = tuple(random.Random(s).sample(range(n), k))
    sol = solver(inst.graph, inst.side_a, inst.side_b, seq, DESK, seed=s)
    return (solver.__name__, n, k, s, seq, sol.cycle.order,
            json.dumps(sol.trace, sort_keys=True))


# recorded with the solvers as they were before the side-switch rule and
# the dense closing step were merged
PINNED_SOLVER_DIGEST = "7f6bff20f0d443d86042927534e2b55420539374c7781bf9ff3377566c25c723"


def test_solver_output_is_pinned():
    h = hashlib.sha256()
    for record in _solver_records():
        h.update(repr(record).encode() + b"\n")
    assert h.hexdigest() == PINNED_SOLVER_DIGEST
